"""Blocked stable draws against the single-pass references, and their memory.

``sample_n`` runs every branch in blocks of ``stable_rng._BLOCK`` variates,
and ``self_similarity_check`` draws and sums its increments in blocks of
whole paths, at most ``_BLOCK`` increments each (one path when a path is
longer).  ``draw_oracle`` draws each request in one pass, as both did
before they were blocked; the blocked results must have the same bytes and
leave the stream at the same point.
"""
import math
import tracemalloc

import numpy as np
import pytest

from levylink import noise_stats, stable_rng
from levylink.stable_rng import StableParams, sample_n, skewed_kernel
from levylink.streams import RngStream

import draw_oracle
from symmetric_oracle import symmetric_kernel

B = stable_rng._BLOCK
PATHS_PER_BLOCK_AT_32_STEPS = B // 32


BRANCHES = {
    "gaussian": StableParams(2.0, 0.0, 0.5, 1.0),
    "cauchy": StableParams(1.0, 0.0, 2.0),
    "levy": StableParams(0.5, -1.0, 1.5, -0.5),
    "symmetric": StableParams(1.3),
    "skewed": StableParams(0.7, -0.4, 1.0, -1.0),
    "unit-index": StableParams(1.0, 0.5, 3.0),
    # Skewed laws next to alpha = 1, where draws reach about 1e15.
    "near-one-above": StableParams(1.0 + 1e-9, 0.5),
    "near-one-below": StableParams(1.0 - 1e-9, -0.5),
    # Laws whose product form gives NaN lanes, repaired in log space.
    "nan-symmetric": StableParams(1e-3),
    "nan-skewed": StableParams(1e-3, 0.5),
    "nan-next-above-one": StableParams(math.nextafter(1.0, 2.0), 1.0),
    "nan-next-above-one-negative": StableParams(math.nextafter(1.0, 2.0), -1.0),
    # Dispatch edges: alpha = 2 is Gaussian at any beta, and only |beta| = 1
    # at alpha = 0.5 exactly takes the Levy branch.
    "gaussian-skewed": StableParams(2.0, 0.7),
    "cms-alpha-half": StableParams(0.5, 0.7),
    "cms-below-half-total-skew": StableParams(0.3, 1.0),
    "cms-quarter-total-skew": StableParams(0.25, -1.0),
}


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B, 3 * B + 5])
@pytest.mark.parametrize("name", BRANCHES)
def test_sample_n_has_the_bytes_and_schedule_of_one_pass(name, n):
    params = BRANCHES[name]
    got_stream, want_stream = RngStream(8, 3), RngStream(8, 3)
    got = sample_n(params, got_stream, n)
    want = draw_oracle.sample_n(params, want_stream, n)
    assert got.tobytes() == want.tobytes()
    assert got_stream.uniforms(2).tobytes() == want_stream.uniforms(2).tobytes()


@pytest.mark.parametrize("name", [k for k in BRANCHES if k.startswith("nan-")])
def test_nan_lanes_fall_on_both_sides_of_a_block_boundary(name):
    # Without NaN lanes in the first block and past the second boundary, the
    # test above would not show that each block repairs its own lanes.
    params, n = BRANCHES[name], 3 * B + 5
    u = RngStream(8, 3).uniforms(2 * n)
    with np.errstate(all="ignore"):
        if params.beta == 0.0:
            product = symmetric_kernel(params.alpha, u[0::2], u[1::2])
        else:
            product = skewed_kernel(params.alpha, params.beta, u[0::2], u[1::2])
    lanes = np.flatnonzero(np.isnan(product))
    assert lanes.min() < B and lanes.max() >= 2 * B


CHECKS = {
    # (alpha, c, t, n_paths, n_steps)
    "one-step-paths": (1.5, 2.0, 1.0, 2 * B + 7, 1),
    "steps-above-block": (1.2, 3.0, 0.5, 6, B + 3),
    "paths-not-whole-blocks": (1.7, 4.0, 2.0, 2 * PATHS_PER_BLOCK_AT_32_STEPS + 7, 32),
    "gaussian": (2.0, 4.0, 1.0, 2 * PATHS_PER_BLOCK_AT_32_STEPS + 7, 32),
    "cauchy": (1.0, 2.0, 1.0, 2 * PATHS_PER_BLOCK_AT_32_STEPS + 7, 32),
}


@pytest.mark.parametrize("name", CHECKS)
def test_self_similarity_endpoints_have_the_bytes_of_one_pass(name, monkeypatch):
    alpha, c, t, n_paths, n_steps = CHECKS[name]
    seen = []
    real_ks = noise_stats.empirical_ks_two_sample
    monkeypatch.setattr(
        noise_stats, "empirical_ks_two_sample",
        lambda xs, ys, significance: seen.append((xs, ys)) or real_ks(xs, ys, significance),
    )
    got_stream, want_stream = RngStream(5, 1), RngStream(5, 1)
    noise_stats.self_similarity_check(alpha, c, t, n_paths, n_steps, got_stream)
    [(stretched, rescaled)] = seen
    want_stretched, want_rescaled = draw_oracle.endpoints(alpha, c, t, n_paths, n_steps, want_stream)
    assert stretched.tobytes() == want_stretched.tobytes()
    assert rescaled.tobytes() == want_rescaled.tobytes()
    assert got_stream.uniforms(2).tobytes() == want_stream.uniforms(2).tobytes()


def test_self_similarity_asks_for_at_most_one_block_of_increments(monkeypatch):
    # 2,000 paths of 32 steps: 64,000 increments per horizon, in whole-path blocks.
    sizes = []
    real_increments = noise_stats.increments
    monkeypatch.setattr(
        noise_stats, "increments",
        lambda law, scale, dt, stream, n: sizes.append(n) or real_increments(law, scale, dt, stream, n),
    )
    noise_stats.self_similarity_check(1.5, 2.0, 1.0, 2000, 32, RngStream(4))
    assert sum(sizes) == 2 * 2000 * 32
    assert max(sizes) <= B


def test_sample_n_draws_whole_blocks_then_the_rest(monkeypatch):
    sizes = []
    real_standard = stable_rng._standard
    monkeypatch.setattr(
        stable_rng, "_standard",
        lambda a, b, stream, n: sizes.append(n) or real_standard(a, b, stream, n),
    )
    sample_n(StableParams(1.5), RngStream(4), 3 * B + 5)
    assert sizes == [B, B, B, 5]


@pytest.mark.parametrize("n_steps", [1, 48, B + 3])
def test_self_similarity_blocks_hold_the_most_whole_paths_that_fit(n_steps, monkeypatch):
    # 48 does not divide the block: 341 paths of 48 steps fill 16,368 of 16,384.
    per_block = max(1, B // n_steps)
    n_paths = 2 * per_block + 5
    sizes = []
    real_increments = noise_stats.increments
    monkeypatch.setattr(
        noise_stats, "increments",
        lambda law, scale, dt, stream, n: sizes.append(n) or real_increments(law, scale, dt, stream, n),
    )
    noise_stats.self_similarity_check(1.5, 2.0, 1.0, n_paths, n_steps, RngStream(4))
    whole, rest = divmod(n_paths, per_block)
    assert sizes == ([per_block * n_steps] * whole + [rest * n_steps] * (rest > 0)) * 2


def peak_traced_bytes(fn):
    """Peak bytes that ``tracemalloc`` sees allocated while ``fn`` runs, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def test_self_similarity_memory_does_not_grow_with_paths_times_steps():
    # 4,000 x 1,024 increments per horizon: 32 MB each if drawn at once.
    peak, report = peak_traced_bytes(
        lambda: noise_stats.self_similarity_check(1.5, 4.0, 1.0, 4000, 1024, RngStream(3))
    )
    assert 0.0 <= report.statistic <= 1.0
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sample_n_memory_is_the_result_plus_one_block():
    peak, draws = peak_traced_bytes(lambda: sample_n(StableParams(1.5), RngStream(3), 10**6))
    assert peak < draws.nbytes + 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
