"""First-jump detection and the degree-1 link fit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylink import link_fit, sde_sim
from levylink.link_fit import (
    LinkEquation,
    SampleRow,
    _median,
    collect_rows,
    detect_first_jump,
    fit_link,
)
from levylink.multinterp import SingularSampleMatrix
from levylink.sde_sim import GridSpec, ModelKind, ModelSpec, Trajectory, simulate
from levylink.streams import RngStream

from scan_oracle import scan_for_first_jump

# Reference first-jump record tables, one per model, with the known
# solution of each 5x5 fit (cross-checked against an independent
# elimination oracle in the acceptance suite).
OU_ROWS = [
    SampleRow(lam=1.0, mu=0.25, alpha=1.0, t=0.06055, x=0.4198),
    SampleRow(lam=1.0, mu=1.0, alpha=1.75, t=0.003906, x=-0.1551),
    SampleRow(lam=1.0, mu=100.0, alpha=0.75, t=0.03125, x=18.82),
    SampleRow(lam=10.0, mu=0.25, alpha=0.5, t=0.02148, x=0.4561),
    SampleRow(lam=1000.0, mu=0.25, alpha=1.75, t=0.001952, x=0.0374),
]
GLM_ROWS = [
    SampleRow(lam=1.0, mu=0.5, alpha=1.25, t=0.001952, x=1.043),
    SampleRow(lam=1.0, mu=1.0, alpha=1.0, t=0.007813, x=1.372),
    SampleRow(lam=100.0, mu=0.5, alpha=1.75, t=0.001953, x=0.9523),
    SampleRow(lam=100.0, mu=10.0, alpha=1.25, t=0.005859, x=0.5114),
    SampleRow(lam=1000.0, mu=1.0, alpha=0.75, t=0.001796, x=-0.7903),
]


def make_traj(values, dt=0.25):
    # The detector reads only times and values, so a path may start at a
    # non-finite value.
    values = np.asarray(values, dtype=float)
    return Trajectory(
        times=dt * np.arange(values.size),
        values=values,
        overflowed=not bool(np.isfinite(values).all()),
        factor_breach_step=None,
    )


def median_detector(traj, threshold_factor=10.0):
    # The np.median detector that detect_first_jump replaced, kept as the
    # bit-for-bit reference; errstate only silences its overflow warnings.
    values = np.asarray(traj.values, dtype=float)
    with np.errstate(all="ignore"):
        diffs = np.abs(np.diff(values))
        finite = diffs[np.isfinite(diffs)]
        median = float(np.median(finite)) if finite.size else 0.0
        threshold = threshold_factor * median if median > 0.0 else 0.0
    hits = np.flatnonzero(diffs > threshold)
    if hits.size == 0:
        return None
    k = int(hits[0]) + 1
    return float(traj.times[k]), float(values[k])


def bits(hit):
    return None if hit is None else tuple(v.hex() for v in hit)


BIG = 1.7976931348623157e308
PATH_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan,
                     1e308, -1e308, BIG, -BIG, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


# ------------------------------------------------------------------ SampleRow

def test_sample_row_validation():
    with pytest.raises(ValueError):
        SampleRow(lam=1.0, mu=1.0, alpha=2.5, t=0.1, x=0.0)
    with pytest.raises(ValueError):
        SampleRow(lam=1.0, mu=1.0, alpha=1.5, t=-0.1, x=0.0)
    with pytest.raises(ValueError):
        SampleRow(lam=math.inf, mu=1.0, alpha=1.5, t=0.1, x=0.0)
    # A jump at the first grid time is a valid record.
    assert SampleRow(lam=1.0, mu=1.0, alpha=1.5, t=0.0, x=0.0).t == 0.0


# ------------------------------------------------------------- jump detection

def test_constant_path_has_no_jump():
    assert detect_first_jump(make_traj([2.0] * 10)) is None


def test_single_spike_path():
    traj = make_traj([0.0, 0.01, 0.02, 5.02, 5.03], dt=1.0)
    got = detect_first_jump(traj, threshold_factor=10.0)
    assert got == (3.0, 5.02)


def test_degenerate_median_falls_back_to_any_positive_increment():
    # Flat except one move: the median increment is 0, so the move counts.
    traj = make_traj([1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5], dt=1.0)
    assert detect_first_jump(traj) == (3.0, 1.5)


def test_detection_matches_brute_force_scan_on_simulated_paths():
    grid = GridSpec(t_end=1.0, n_steps=256)
    found = 0
    for seed in (70, 71, 72):
        model = ModelSpec(kind=ModelKind.OU, lam=1.0, mu=1.0, alpha=0.75, x0=1.0)
        traj = simulate(model, grid, RngStream(seed))
        got = detect_first_jump(traj, threshold_factor=10.0)
        assert got == scan_for_first_jump(traj, 10.0)
        found += got is not None
    assert found >= 1


def test_detection_invariant_under_power_of_two_rescaling():
    # Powers of two rescale increments and median exactly in binary floats.
    grid = GridSpec(t_end=1.0, n_steps=128)
    model = ModelSpec(kind=ModelKind.OU, lam=1.0, mu=1.0, alpha=1.0, x0=1.0)
    traj = simulate(model, grid, RngStream(73))
    base = detect_first_jump(traj, threshold_factor=10.0)
    assert base is not None
    scaled = make_traj(4.0 * traj.values, dt=grid.dt)
    got = detect_first_jump(scaled, threshold_factor=10.0)
    assert got[0] == base[0]
    assert got[1] == 4.0 * base[1]


def test_detection_validation():
    with pytest.raises(ValueError):
        detect_first_jump(make_traj([0.0]))
    with pytest.raises(ValueError):
        detect_first_jump(make_traj([0.0, 1.0]), threshold_factor=0.0)


def test_infinite_increment_always_qualifies():
    traj = make_traj([1.0, 1.1, math.inf, math.inf], dt=1.0)
    got = detect_first_jump(traj)
    assert got[0] == 2.0
    assert math.isinf(got[1])


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        st.lists(PATH_VALUES, min_size=2, max_size=40),
        # Few distinct levels: tied increments and all-zero paths.
        st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=2, max_size=12),
        st.integers(2, 12).map(lambda n: [0.0] * n),
    ),
    threshold_factor=st.one_of(
        st.sampled_from([0.5, 1.0, 2.0, 10.0, 1e300]),
        st.floats(min_value=1e-6, max_value=1e6),
    ),
)
def test_detector_matches_median_reference_bit_for_bit(values, threshold_factor):
    traj = make_traj(values)
    assert bits(detect_first_jump(traj, threshold_factor)) == bits(
        median_detector(traj, threshold_factor)
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1e308, BIG, 5e-324]),
                          st.floats(min_value=0.0, allow_infinity=False)),
                min_size=1, max_size=40))
def test_partition_median_has_the_bits_of_np_median(sample):
    with np.errstate(over="ignore"):
        want = float(np.median(sample))
    assert _median(np.array(sample)).hex() == want.hex()


@pytest.mark.parametrize("values", [
    [0.0, 1.0], [0.0, 1.0, 3.0],                     # one and two increments
    [0.0, BIG, 0.0, BIG, 0.0],                       # lo + hi overflows
    [0.0, 1e308, 0.0, -1e308, 0.0, 1e308],
    [BIG, -BIG, BIG],                                # the increments overflow
    [0.0, math.nan, 1.0, math.inf, 2.0, 2.0],
])
def test_detector_matches_median_reference_at_the_edges(values):
    traj = make_traj(values)
    for factor in (0.5, 1.0, 10.0):
        assert bits(detect_first_jump(traj, factor)) == bits(median_detector(traj, factor))


# ------------------------------------------------------------------- fit_link

def test_fit_link_requires_exactly_five_rows():
    # fit_link's own count check, not the interpolation's node-shape refusal.
    with pytest.raises(ValueError, match="^link fit needs exactly 5 rows, got 4$"):
        fit_link(OU_ROWS[:4])
    with pytest.raises(ValueError, match="^link fit needs exactly 5 rows, got 6$"):
        fit_link(OU_ROWS + GLM_ROWS[:1])


def test_fit_link_rejects_repeated_rows():
    with pytest.raises(SingularSampleMatrix):
        fit_link([OU_ROWS[0]] * 5)


def test_fit_link_recovers_planted_coefficients():
    def g(lam, mu, alpha, t):
        return 0.3 * lam - 1.2 * mu + 7.0 * alpha + 2.0 * t - 4.0

    rows = [
        SampleRow(lam=lam, mu=mu, alpha=alpha, t=t, x=g(lam, mu, alpha, t))
        for lam, mu, alpha, t in [
            (1.0, 0.2, 1.1, 0.05),
            (3.0, 1.5, 0.6, 0.02),
            (0.5, 2.0, 1.9, 0.11),
            (7.0, 0.9, 1.4, 0.08),
            (2.0, 3.0, 0.3, 0.01),
        ]
    ]
    link = fit_link(rows)
    for got, want in zip(link.coefficients, (0.3, -1.2, 7.0, 2.0, -4.0)):
        assert abs(got - want) <= 1e-8 * abs(want)


def test_fit_link_reference_table_ou():
    link = fit_link(OU_ROWS)
    want = (0.00034274121672155, 0.18486044365076, -0.51644118818830, 5.75902905156, 0.54097412698663)
    for got, ref in zip(link.coefficients, want):
        assert got == pytest.approx(ref, rel=1e-9)
    assert link.t_bar == pytest.approx(0.0238276, rel=1e-10)
    assert link.x_bar == pytest.approx(3.91564, rel=1e-10)
    assert link.rhs == pytest.approx(3.23744, abs=1e-4)


def test_fit_link_reference_table_glm():
    link = fit_link(GLM_ROWS)
    want = (-0.00171242038737, -0.06628740900674, 0.15752222108451, 68.50780750290, 0.74722610828944)
    for got, ref in zip(link.coefficients, want):
        assert got == pytest.approx(ref, rel=1e-9)
    assert link.t_bar == pytest.approx(0.0038746, rel=1e-10)
    assert link.x_bar == pytest.approx(0.61768, rel=1e-10)
    assert link.rhs == pytest.approx(-0.3949911, abs=1e-3)


def test_link_equation_rhs_identity():
    for rows in (OU_ROWS, GLM_ROWS):
        link = fit_link(rows)
        b1, b2, b3, b4, b5 = link.coefficients
        assert abs(link.rhs - (link.x_bar - b5 - b4 * link.t_bar)) < 1e-12


def test_equation_text_mentions_all_three_parameters():
    text = fit_link(OU_ROWS).equation_text()
    for name in ("lambda", "mu", "alpha", "="):
        assert name in text


# --------------------------------------------------------------- collect_rows

def test_collect_rows_excludes_noiseless_triples():
    grid = GridSpec(t_end=1.0, n_steps=64)
    result = collect_rows([(1.0, 0.0, 1.5)], ModelKind.OU, grid, 10.0, RngStream(75))
    assert result.rows == []
    assert result.excluded == [(1.0, 0.0, 1.5)]


def test_collect_rows_excludes_a_triple_whose_first_jump_is_not_finite(monkeypatch):
    # The forced OU path is 1, 0.5, 0.25, then inf from step 3: the first
    # jump lands on inf, which no SampleRow may hold.
    monkeypatch.setattr(
        sde_sim, "increments", lambda law, scale, dt, stream, n: np.array([0.0, 0.0, math.inf, 0.0])
    )
    grid = GridSpec(t_end=2.0, n_steps=4)
    result = collect_rows([(1.0, 1.0, 1.5)], ModelKind.OU, grid, 10.0, RngStream(79))
    assert result.rows == []
    assert result.excluded == [(1.0, 1.0, 1.5)]


def test_collect_rows_is_deterministic_and_keyed_by_triple_index():
    grid = GridSpec(t_end=1.0, n_steps=128)
    triples = [(1.0, 1.0, 0.75), (1.0, 2.0, 1.25), (10.0, 1.0, 1.0)]
    a = collect_rows(triples, ModelKind.OU, grid, 10.0, RngStream(76))
    b = collect_rows(triples, ModelKind.OU, grid, 10.0, RngStream(76))
    assert a == b
    assert len(a.rows) + len(a.excluded) == 3
    for row in a.rows:
        assert 0.0 < row.t <= 1.0


def test_collect_rows_takes_the_model_kind_by_value():
    grid = GridSpec(t_end=1.0, n_steps=200)
    triples = [(1.0, 0.5, 1.5), (2.0, 0.3, 1.2)]
    by_value = collect_rows(triples, "ou", grid, 10.0, RngStream(78))
    assert by_value == collect_rows(triples, ModelKind.OU, grid, 10.0, RngStream(78))
    assert by_value != collect_rows(triples, ModelKind.GLM, grid, 10.0, RngStream(78))


def test_collect_rows_agrees_with_manual_simulation():
    grid = GridSpec(t_end=1.0, n_steps=128)
    triples = [(1.0, 1.0, 0.75), (2.0, 0.5, 1.1)]
    result = collect_rows(triples, ModelKind.GLM, grid, 10.0, RngStream(77))
    by_triple = {(r.lam, r.mu, r.alpha): (r.t, r.x) for r in result.rows}
    for i, (lam, mu, alpha) in enumerate(triples):
        model = ModelSpec(kind=ModelKind.GLM, lam=lam, mu=mu, alpha=alpha, x0=1.0)
        traj = simulate(model, grid, RngStream(77, i))
        hit = detect_first_jump(traj, 10.0)
        if hit is None or not math.isfinite(hit[1]):
            assert (lam, mu, alpha) in result.excluded
        else:
            assert by_triple[(lam, mu, alpha)] == hit


def test_collect_rows_rejects_empty_grid():
    with pytest.raises(ValueError):
        collect_rows([], ModelKind.OU, GridSpec(t_end=1.0, n_steps=8), 10.0, RngStream(1))


@pytest.mark.parametrize(
    "triples, t_end, threshold, message",
    [
        ([(1.0, 0.5, 1.5)] * 3, 1.0, -1.0, "threshold_factor=-1.0 must be a positive real"),
        ([(1.0, 0.5, 1.5), (1.0, 0.5, 3.0)], 1.0, 10.0,
         "alpha=3.0 must lie in the interval (0, 2]"),
        # dt = 9.8e296: dt**(1/1.5) fits a float64, the second triple's dt**100 does not.
        ([(1.0, 1.0, 1.5), (1.0, 1.0, 0.01)], 1e300, 10.0,
         "dt**(1/alpha) overflows float64 for dt=9.765625e+296, alpha=0.01"),
    ],
    ids=["threshold", "second_alpha", "second_step_scale"],
)
def test_collect_rows_checks_every_input_before_simulating(monkeypatch, triples, t_end,
                                                            threshold, message):
    calls = []
    monkeypatch.setattr(sde_sim, "simulate", lambda *a: calls.append(a))
    with pytest.raises(ValueError) as info:
        collect_rows(triples, "ou", GridSpec(t_end, 1024), threshold, RngStream(1))
    assert str(info.value) == message
    assert calls == []
