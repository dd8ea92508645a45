"""Noise increments, empirical CDF / KS machinery, self-similarity check."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylink.noise_stats import (
    EmptySample,
    NoiseSpec,
    empirical_cdf,
    empirical_ks_one_sample,
    empirical_ks_two_sample,
    increments,
    self_similarity_check,
)
from levylink.stable_rng import StableParams, sample_n
from levylink.streams import RngStream


# ----------------------------------------------------------------- increments

def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(alpha=2.5)
    with pytest.raises(ValueError):
        NoiseSpec(alpha=1.0, scale=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(alpha=1.0, scale=math.nan)


def test_zero_scale_gives_zeros_without_consuming_draws():
    stream = RngStream(30)
    out = increments(NoiseSpec(alpha=1.5, scale=0.0), 0.1, stream, 50)
    assert np.array_equal(out, np.zeros(50))
    # The stream must be untouched: its next draw equals a fresh stream's first.
    assert stream.uniforms(1)[0] == RngStream(30).uniforms(1)[0]


def test_gaussian_increment_is_scaled_normal():
    # alpha = 2, dt = 0.25: increment = 0.5 * sqrt(2) * N for the next normal N.
    got = increments(NoiseSpec(alpha=2.0, scale=1.0), 0.25, RngStream(31), 6)
    normals = RngStream(31).normals(6)
    assert np.allclose(got, 0.5 * math.sqrt(2.0) * normals, rtol=0, atol=0)


def test_unit_time_increment_equals_direct_sample():
    # dt = 1 makes the scaling factor exactly scale * 1, so the increment
    # stream coincides draw for draw with direct stable sampling.
    got = increments(NoiseSpec(alpha=1.5, scale=0.7), 1.0, RngStream(32), 100)
    want = 0.7 * sample_n(StableParams(alpha=1.5), RngStream(32), 100)
    assert np.array_equal(got, want)


def test_unit_time_increment_distribution_oracle():
    xs = increments(NoiseSpec(alpha=1.5, scale=1.0), 1.0, RngStream(33), 10_000)
    ys = sample_n(StableParams(alpha=1.5), RngStream(34), 10_000)
    assert empirical_ks_two_sample(xs, ys, significance=0.01).passed


def test_increment_rejects_bad_dt():
    with pytest.raises(ValueError):
        increments(NoiseSpec(alpha=1.0), 0.0, RngStream(1), 3)
    with pytest.raises(ValueError):
        increments(NoiseSpec(alpha=1.0), -1.0, RngStream(1), 3)


@pytest.mark.parametrize("alpha,a,seed", [(0.8, 2.0, 611), (1.5, 4.0, 612)])
def test_scaling_composition(alpha, a, seed):
    # Stretching the step by a rescales the increment by a**(1/alpha).
    stream = RngStream(seed)
    big = increments(NoiseSpec(alpha), a * 0.25, stream, 10_000)
    small = a ** (1.0 / alpha) * increments(NoiseSpec(alpha), 0.25, stream, 10_000)
    assert empirical_ks_two_sample(big, small, significance=0.01).passed


@pytest.mark.parametrize("alpha,seed", [(1.0, 621), (1.8, 624)])
def test_sum_consistency(alpha, seed):
    # Sixteen small steps summed match one sixteen-fold step in distribution.
    stream = RngStream(seed)
    parts = increments(NoiseSpec(alpha), 1.0 / 16, stream, 16 * 10_000)
    summed = parts.reshape(10_000, 16).sum(axis=1)
    whole = increments(NoiseSpec(alpha), 1.0, stream, 10_000)
    assert empirical_ks_two_sample(summed, whole, significance=0.01).passed


# -------------------------------------------------------------- empirical CDF

def test_empirical_cdf_step_values():
    xs = [1.0, 2.0, 2.0, 4.0]
    points = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    got = empirical_cdf(xs, points)
    assert np.allclose(got, [0.0, 0.25, 0.75, 0.75, 1.0, 1.0], rtol=0, atol=0)


def test_empirical_cdf_empty_sample():
    with pytest.raises(EmptySample):
        empirical_cdf([], [0.0])


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
    with pytest.raises(ValueError, match="NaN"):
        empirical_cdf([math.nan], [0.0])


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


def test_ks_one_sample_exact_uniform_grid():
    # Sample {0.25, 0.75} against the uniform CDF on [0, 1]:
    # D = max(1/2 - 1/4, 1 - 3/4, 1/4 - 0, 3/4 - 1/2) = 0.25.
    report = empirical_ks_one_sample([0.25, 0.75], lambda x: np.asarray(x), significance=0.05)
    assert report.statistic == pytest.approx(0.25)


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
