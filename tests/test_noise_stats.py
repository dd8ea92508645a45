"""Noise increments, KS machinery against an empirical-CDF reference, self-similarity check.

The one-sample KS oracle of ``ks_oracle`` is pinned here against scipy.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from levylink import noise_stats
from levylink.noise_stats import (
    EmptySample,
    empirical_ks_two_sample,
    increments,
    self_similarity_check,
)
from levylink.sde_sim import GridSpec, ModelSpec, simulate
from levylink.stable_rng import StableParams, sample_n
from levylink.streams import RngStream

from ks_oracle import empirical_ks_one_sample


# ----------------------------------------------------------------- increments

def test_noise_law_and_scale_validation():
    with pytest.raises(ValueError):
        StableParams(alpha=2.5)
    with pytest.raises(ValueError, match=r"^scale=-1\.0 must be a non-negative real$"):
        increments(StableParams(alpha=1.0), -1.0, 0.1, RngStream(1), 3)
    with pytest.raises(ValueError, match=r"^scale=nan must be a non-negative real$"):
        increments(StableParams(alpha=1.0), math.nan, 0.1, RngStream(1), 3)


def test_zero_scale_gives_zeros_without_consuming_draws():
    stream = RngStream(30)
    out = increments(StableParams(1.5), 0.0, 0.1, stream, 50)
    assert np.array_equal(out, np.zeros(50))
    # The stream must be untouched: its next draw equals a fresh stream's first.
    assert stream.uniforms(1)[0] == RngStream(30).uniforms(1)[0]


def test_gaussian_increment_is_scaled_normal():
    # alpha = 2, dt = 0.25: increment = 0.5 * sqrt(2) * N for the next normal N.
    got = increments(StableParams(2.0), 1.0, 0.25, RngStream(31), 6)
    normals = RngStream(31).normals(6)
    assert np.allclose(got, 0.5 * math.sqrt(2.0) * normals, rtol=0, atol=0)


def test_unit_time_increment_equals_direct_sample():
    # dt = 1 makes the scaling factor exactly scale * 1, so the increment
    # stream coincides draw for draw with direct stable sampling.
    got = increments(StableParams(1.5), 0.7, 1.0, RngStream(32), 100)
    want = 0.7 * sample_n(StableParams(alpha=1.5), RngStream(32), 100)
    assert np.array_equal(got, want)


def test_unit_time_increment_distribution_oracle():
    xs = increments(StableParams(1.5), 1.0, 1.0, RngStream(33), 10_000)
    ys = sample_n(StableParams(alpha=1.5), RngStream(34), 10_000)
    assert empirical_ks_two_sample(xs, ys, significance=0.01).passed


def test_increment_rejects_bad_dt():
    with pytest.raises(ValueError):
        increments(StableParams(1.0), 1.0, 0.0, RngStream(1), 3)
    with pytest.raises(ValueError):
        increments(StableParams(1.0), 1.0, -1.0, RngStream(1), 3)


@pytest.mark.parametrize("alpha,a,seed", [(0.8, 2.0, 611), (1.5, 4.0, 612)])
def test_scaling_composition(alpha, a, seed):
    # Stretching the step by a rescales the increment by a**(1/alpha).
    stream = RngStream(seed)
    big = increments(StableParams(alpha), 1.0, a * 0.25, stream, 10_000)
    small = a ** (1.0 / alpha) * increments(StableParams(alpha), 1.0, 0.25, stream, 10_000)
    assert empirical_ks_two_sample(big, small, significance=0.01).passed


@pytest.mark.parametrize("alpha,seed", [(1.0, 621), (1.8, 624)])
def test_sum_consistency(alpha, seed):
    # Sixteen small steps summed match one sixteen-fold step in distribution.
    stream = RngStream(seed)
    parts = increments(StableParams(alpha), 1.0, 1.0 / 16, stream, 16 * 10_000)
    summed = parts.reshape(10_000, 16).sum(axis=1)
    whole = increments(StableParams(alpha), 1.0, 1.0, stream, 10_000)
    assert empirical_ks_two_sample(summed, whole, significance=0.01).passed


@pytest.mark.parametrize(
    "alpha,scale,dt", [(2.0, 1.0, 0.25), (1.0, 0.7, 1.0 / 3.0), (1.5, 2.0, 0.01), (0.6, 1e-3, 7.5)]
)
def test_increments_have_the_bits_of_factor_times_sample_n(alpha, scale, dt):
    # The factor multiplies the fresh draws in place: the same IEEE product.
    got = increments(StableParams(alpha), scale, dt, RngStream(51), 400)
    want = (scale * dt ** (1.0 / alpha)) * sample_n(StableParams(alpha=alpha), RngStream(51), 400)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [0.0, 1.5])
def test_increments_return_a_fresh_buffer(scale):
    stream = RngStream(52)
    a = increments(StableParams(1.2), scale, 0.1, stream, 32)
    b = increments(StableParams(1.2), scale, 0.1, stream, 32)
    assert not np.shares_memory(a, b)


def test_increments_refuse_an_overflowing_step_scale_before_drawing():
    # dt**(1/alpha) = (2.5e299)**2 does not fit a float64.
    stream = RngStream(53)
    with pytest.raises(ValueError, match=r"dt=2\.5e\+299.*alpha=0\.5"):
        increments(StableParams(0.5), 1.0, 2.5e299, stream, 4)
    assert stream.uniforms(1)[0] == RngStream(53).uniforms(1)[0]


def test_glm_simulate_refuses_an_overflowing_step_scale_before_drawing():
    # The GLM draws its Brownian normals first; the jump step must be refused before them.
    stream = RngStream(1)
    with pytest.raises(ValueError, match=r"^dt\*\*\(1/alpha\) overflows float64 for dt=2\.5e\+299"):
        simulate(ModelSpec("glm", 1.0, 1.0, 0.5, 1.0), GridSpec(1e300, 4), stream)
    assert stream.normals(1)[0] == RngStream(1).normals(1)[0]


def test_increments_refuse_an_overflowing_step_at_zero_scale():
    # Zero scale draws nothing, but the step is checked all the same.
    with pytest.raises(ValueError, match=r"^dt\*\*\(1/alpha\) overflows float64 for dt=2\.5e\+299"):
        increments(StableParams(0.5), 0.0, 2.5e299, RngStream(53), 4)


def test_increments_overflow_silently():
    # dt**(1/alpha) = 2**1000: large finite draws overflow to +-inf.
    got = increments(StableParams(0.001), 1.0, 2.0, RngStream(59), 1000)
    draws = sample_n(StableParams(alpha=0.001), RngStream(59), 1000)
    assert np.isinf(got[np.isfinite(draws)]).any()
    assert not np.isnan(got).any()


def test_increments_with_an_underflowed_factor_are_nan_only_at_infinite_draws():
    # dt**(1/alpha) = 0.5**10000 underflows to 0: IEEE 0 * inf, without a warning.
    got = increments(StableParams(1e-4), 1.0, 0.5, RngStream(60), 1000)
    draws = sample_n(StableParams(alpha=1e-4), RngStream(60), 1000)
    assert np.isinf(draws).any()
    assert np.array_equal(np.isnan(got), np.isinf(draws))
    assert np.all(got[np.isfinite(draws)] == 0.0)


@pytest.mark.parametrize("n", [3.0, 2.5, "3", None])
@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_increments_refuse_a_non_integer_count(n, scale):
    with pytest.raises(TypeError, match="n="):
        increments(StableParams(1.5), scale, 0.1, RngStream(1), n)


# -------------------------------------------------------------- empirical CDF

def empirical_cdf(xs, points):
    """Right-continuous empirical CDF of ``xs`` at ``points``: the KS reference."""
    xs = np.sort(np.asarray(xs, dtype=float))
    return np.searchsorted(xs, np.asarray(points, dtype=float), side="right") / xs.size


def test_empirical_cdf_step_values():
    xs = [1.0, 2.0, 2.0, 4.0]
    points = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    got = empirical_cdf(xs, points)
    assert np.allclose(got, [0.0, 0.25, 0.75, 0.75, 1.0, 1.0], rtol=0, atol=0)


# ------------------------------------------------------------------- KS tests

def test_ks_two_sample_identical_samples():
    xs = [0.3, -1.2, 4.5, 0.0]
    report = empirical_ks_two_sample(xs, list(xs), significance=0.05)
    assert report.statistic == 0.0
    assert report.passed


def test_ks_two_sample_disjoint_singletons():
    report = empirical_ks_two_sample([0.0], [1.0], significance=0.05)
    assert report.statistic == 1.0


def test_ks_two_sample_critical_value_formula():
    report = empirical_ks_two_sample(np.zeros(400), np.zeros(100), significance=0.05)
    assert report.critical_value == pytest.approx(1.358 * math.sqrt(500 / 40_000))
    report = empirical_ks_two_sample(np.zeros(400), np.zeros(100), significance=0.01)
    assert report.critical_value == pytest.approx(1.628 * math.sqrt(500 / 40_000))


def test_ks_rejects_unsupported_significance():
    with pytest.raises(ValueError):
        empirical_ks_two_sample([0.0], [1.0], significance=0.1)


def test_ks_rejects_empty_samples():
    with pytest.raises(EmptySample):
        empirical_ks_two_sample([], [1.0])
    with pytest.raises(EmptySample):
        empirical_ks_one_sample([], lambda x: x)


def test_ks_routines_refuse_nan_samples():
    nans = np.full(50, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        empirical_ks_two_sample(nans, nans)
    with pytest.raises(ValueError, match="NaN"):
        empirical_ks_two_sample([0.0, 1.0], [0.5, math.nan])
    with pytest.raises(ValueError, match="NaN"):
        empirical_ks_one_sample([0.2, math.nan], lambda x: x)


def test_ks_accepts_infinite_samples():
    xs = [-math.inf, 0.0, math.inf]
    assert empirical_ks_two_sample(xs, list(xs), significance=0.05).statistic == 0.0
    assert np.array_equal(empirical_cdf(xs, [-math.inf, 0.0, math.inf]), [1 / 3, 2 / 3, 1.0])


@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(st.floats(-100, 100), min_size=1, max_size=12),
    ys=st.lists(st.floats(-100, 100), min_size=1, max_size=12),
)
def test_ks_two_sample_is_symmetric(xs, ys):
    a = empirical_ks_two_sample(xs, ys, significance=0.05)
    b = empirical_ks_two_sample(ys, xs, significance=0.05)
    assert a.statistic == b.statistic


def pooled_ks_statistic(xs, ys):
    """The two-sample statistic by definition: both CDFs at the unsorted pooled sample."""
    pooled = np.concatenate([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])
    return float(np.max(np.abs(empirical_cdf(xs, pooled) - empirical_cdf(ys, pooled))))


def scipy_ks_statistic(xs, ys):
    # Only the statistic is compared; the p-value of a tiny sample divides by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        return stats.ks_2samp(xs, ys, method="asymp").statistic


# Ties, signed zeros, infinities, subnormals and huge magnitudes, plus any float.
KS_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 1e300, -1e300]
    ),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(KS_VALUES, min_size=1, max_size=300),
    ys=st.lists(KS_VALUES, min_size=1, max_size=300),
    significance=st.sampled_from([0.05, 0.01]),
)
def test_sort_once_ks_has_the_bits_of_the_pooled_definition(xs, ys, significance):
    report = empirical_ks_two_sample(xs, ys, significance=significance)
    want = pooled_ks_statistic(xs, ys)
    assert report.statistic.hex() == want.hex()
    assert report.passed == (want < report.critical_value)
    assert report.statistic == scipy_ks_statistic(xs, ys)


def test_sort_once_ks_on_criterion_sized_stable_samples():
    xs = sample_n(StableParams(alpha=1.2, beta=0.3), RngStream(54), 10_000)
    ys = sample_n(StableParams(alpha=1.2, beta=0.3), RngStream(55), 10_000)
    report = empirical_ks_two_sample(xs, ys)
    assert report.statistic.hex() == pooled_ks_statistic(xs, ys).hex()
    assert report.statistic == scipy_ks_statistic(xs, ys)


def test_ks_two_sample_leaves_its_inputs_alone():
    xs, ys = np.array([3.0, -1.0, 2.0]), np.array([0.5, -4.0])
    empirical_ks_two_sample(xs, ys)
    assert xs.tolist() == [3.0, -1.0, 2.0] and ys.tolist() == [0.5, -4.0]


def test_ks_one_sample_exact_uniform_grid():
    # Sample {0.25, 0.75} against the uniform CDF on [0, 1]:
    # D = max(1/2 - 1/4, 1 - 3/4, 1/4 - 0, 3/4 - 1/2) = 0.25.
    report = empirical_ks_one_sample([0.25, 0.75], lambda x: np.asarray(x), significance=0.05)
    assert report.statistic == pytest.approx(0.25)


def test_ks_one_sample_takes_d_minus_when_it_dominates():
    # Sample {0.8, 0.9} against the uniform CDF: D+ = max(1/2 - 0.8, 1 - 0.9)
    # = 0.1 and D- = max(0.8 - 0, 0.9 - 1/2) = 0.8.
    report = empirical_ks_one_sample([0.8, 0.9], lambda x: np.asarray(x), significance=0.05)
    assert report.statistic == pytest.approx(0.8)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
def test_ks_one_sample_matches_scipy_kstest(xs):
    report = empirical_ks_one_sample(xs, lambda x: np.asarray(x), significance=0.01)
    want = stats.kstest(xs, "uniform").statistic
    assert report.statistic == pytest.approx(want, rel=0, abs=1e-15)
    assert report.critical_value == 1.628 / math.sqrt(len(xs))


def test_ks_calibration_on_matched_cauchy_samples():
    # At the 1% level, 100 seeded repetitions should nearly all pass.
    passes = 0
    for rep in range(100):
        stream = RngStream(500, rep)
        xs = sample_n(StableParams(alpha=1.0), stream, 10_000)
        ys = sample_n(StableParams(alpha=1.0), stream, 10_000)
        passes += empirical_ks_two_sample(xs, ys, significance=0.01).passed
    assert passes >= 95, passes


# ------------------------------------------------------------- self-similarity

def test_self_similarity_unit_stretch_passes():
    report = self_similarity_check(1.5, 1.0, 1.0, 2000, 32, RngStream(40))
    assert report.passed


def test_self_similarity_gaussian_scaling():
    report = self_similarity_check(2.0, 4.0, 1.0, 5000, 64, RngStream(41))
    assert report.passed


def test_self_similarity_validation():
    with pytest.raises(ValueError):
        self_similarity_check(1.5, 0.0, 1.0, 10, 10, RngStream(1))
    with pytest.raises(ValueError):
        self_similarity_check(1.5, 2.0, -1.0, 10, 10, RngStream(1))
    with pytest.raises(ValueError):
        self_similarity_check(1.5, 2.0, 1.0, 0, 10, RngStream(1))
    with pytest.raises(ValueError):
        self_similarity_check(2.5, 2.0, 1.0, 10, 10, RngStream(1))


def test_self_similarity_refuses_an_overflowing_stretch_before_drawing():
    # c**(1/alpha) = 1e400 does not fit a float64; c * t alone is harmless.
    stream = RngStream(56)
    with pytest.raises(ValueError, match=r"c=10000\.0.*alpha=0\.01"):
        self_similarity_check(0.01, 1e4, 1e-6, 10, 1, stream)
    assert stream.uniforms(1)[0] == RngStream(56).uniforms(1)[0]


def test_self_similarity_refuses_a_bad_significance_before_drawing():
    stream = RngStream(56)
    with pytest.raises(ValueError, match="significance=0.02"):
        self_similarity_check(1.5, 2.0, 1.0, 10, 4, stream, significance=0.02)
    assert stream.uniforms(1)[0] == RngStream(56).uniforms(1)[0]


@pytest.mark.parametrize("significance,least", [(0.01, 6), (0.05, 4)])
def test_self_similarity_refuses_too_few_paths_to_fail_before_drawing(significance, least):
    # Below `least` paths the critical value is at least 1, which no KS statistic exceeds.
    stream = RngStream(57)
    for n_paths in (1, least - 1):
        with pytest.raises(ValueError) as info:
            self_similarity_check(1.5, 2.0, 1.0, n_paths, 4, stream, significance=significance)
        assert type(info.value) is ValueError  # not EmptySample: the samples would not be empty
        assert str(info.value) == (f"n_paths={n_paths} cannot fail a KS check at significance "
                                   f"{significance}; use n_paths >= {least}")
    assert stream.uniforms(1)[0] == RngStream(57).uniforms(1)[0]
    report = self_similarity_check(1.5, 1e6, 1.0, least, 4, stream, significance=significance)
    assert report.critical_value < 1.0


def test_self_similarity_refuses_too_few_paths_after_its_other_checks():
    with pytest.raises(ValueError, match="significance=0.02"):
        self_similarity_check(1.5, 2.0, 1.0, 1, 4, RngStream(1), significance=0.02)
    with pytest.raises(ValueError, match="dt=0.0 must be a positive real"):
        self_similarity_check(1.5, 2.0, 5e-324, 1, 2, RngStream(1))


@pytest.mark.parametrize(
    "args,message",
    [
        # The c*t step of 1e150 is harmless; the t step's dt**2 overflows.
        ((0.5, 1e-10, 1e160, 1000, 1),
         r"dt\*\*\(1/alpha\) overflows float64 for dt=1e\+160, alpha=0\.5"),
        # The c*t step is 5e-324; the t step underflows to 0.
        ((1.5, 2.0, 5e-324, 1000, 2), r"dt=0\.0 must be a positive real"),
    ],
    ids=["t-step-overflows", "t-step-underflows"],
)
def test_self_similarity_refuses_a_bad_step_before_drawing(args, message, monkeypatch):
    calls = []
    monkeypatch.setattr(
        noise_stats, "sample_n", lambda *a: calls.append(a) or sample_n(*a)
    )
    with pytest.raises(ValueError, match=message):
        self_similarity_check(*args, RngStream(56))
    assert calls == []


def test_self_similarity_refuses_an_overflowing_horizon():
    with pytest.raises(ValueError, match=r"c\*t .*c=1e\+300, t=10000000000\.0"):
        self_similarity_check(2.0, 1e300, 1e10, 10, 4, RngStream(58))


@pytest.mark.parametrize(
    "n_paths,n_steps,name", [(10.5, 4, "n_paths"), (10, 4.0, "n_steps"), ("10", 4, "n_paths")]
)
def test_self_similarity_refuses_non_integer_counts(n_paths, n_steps, name):
    with pytest.raises(TypeError, match=name):
        self_similarity_check(1.5, 2.0, 1.0, n_paths, n_steps, RngStream(1))


def test_self_similarity_accepts_numpy_integer_counts():
    a = self_similarity_check(1.5, 2.0, 1.0, np.int64(50), np.int32(4), RngStream(57))
    b = self_similarity_check(1.5, 2.0, 1.0, 50, 4, RngStream(57))
    assert a == b
