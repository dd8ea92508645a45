"""Stable variate generator: validation, branch kernels, shift rules, distribution."""
import math

import numpy as np
import pytest
from scipy.stats import levy_stable

from levylink.noise_stats import empirical_ks_one_sample, empirical_ks_two_sample
from levylink.stable_rng import (
    ParameterError,
    StableParams,
    cauchy_kernel,
    sample_n,
    skewed_kernel,
    symmetric_kernel,
    unit_index_kernel,
    validate,
)
from levylink.streams import RngStream


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
        validate(StableParams(alpha=2.5))
    assert err.value.field == "alpha"
    assert "(0, 2]" in str(err.value)


def test_validate_rejects_beta_outside_band():
    with pytest.raises(ParameterError) as err:
        validate(StableParams(alpha=1.0, beta=-1.5))
    assert err.value.field == "beta"


def test_validate_rejects_negative_gamma_and_nonfinite_delta():
    with pytest.raises(ParameterError) as err:
        validate(StableParams(alpha=1.0, gamma=-0.1))
    assert err.value.field == "gamma"
    with pytest.raises(ParameterError) as err:
        validate(StableParams(alpha=1.0, delta=math.inf))
    assert err.value.field == "delta"


def test_validate_accepts_boundary_values():
    validate(StableParams(alpha=2.0, beta=0.0, gamma=1.0, delta=0.0))
    validate(StableParams(alpha=0.0000001, beta=1.0, gamma=0.0, delta=-3.0))
    validate(StableParams(alpha=1.0, beta=-1.0))


def test_sample_n_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        sample_n(StableParams(alpha=1.5), RngStream(1), 0)


def test_sample_rejects_invalid_params():
    with pytest.raises(ParameterError):
        sample_n(StableParams(alpha=0.0), RngStream(1), 1)


# ------------------------------------------------------------ forced kernels

def test_symmetric_kernel_vanishes_at_central_angle():
    # u1 = 0.5 puts the angle V at 0, where sin(alpha * V) = 0.
    assert symmetric_kernel(1.5, 0.5, 0.37) == 0.0
    assert symmetric_kernel(0.7, 0.5, 0.91) == 0.0


def test_cauchy_kernel_median_is_zero():
    assert cauchy_kernel(0.5) == pytest.approx(0.0, abs=1e-15)


def test_cauchy_kernel_quartiles():
    assert cauchy_kernel(0.75) == pytest.approx(1.0, rel=1e-12)
    assert cauchy_kernel(0.25) == pytest.approx(-1.0, rel=1e-12)


def test_skewed_kernel_reduces_to_symmetric_at_zero_beta():
    for alpha in (0.3, 0.8, 1.5, 1.9):
        for u1, u2 in ((0.21, 0.84), (0.66, 0.05)):
            assert skewed_kernel(alpha, 0.0, u1, u2) == pytest.approx(
                symmetric_kernel(alpha, u1, u2), rel=1e-12
            )


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


# ------------------------------------------------------------- distribution

@pytest.mark.parametrize("seed,stream_id", [(1.7, 0), (1.0, 0), (1, 2.0), ("1", 0)])
def test_stream_refuses_non_integer_keys(seed, stream_id):
    with pytest.raises(TypeError):
        RngStream(seed, stream_id)


@pytest.mark.parametrize("seed,stream_id", [(-1, 0), (0, -1)])
def test_stream_refuses_negative_keys_at_construction(seed, stream_id):
    with pytest.raises(ValueError):
        RngStream(seed, stream_id)


def test_stream_repr_and_key():
    stream = RngStream(7, 3)
    assert repr(stream) == "RngStream(seed=7, stream_id=3)"
    assert stream.key == (7, 3)
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


def test_stream_accepts_numpy_integer_keys():
    stream = RngStream(np.int64(3), np.uint8(2))
    assert stream.key == (3, 2) and all(type(k) is int for k in stream.key)
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
