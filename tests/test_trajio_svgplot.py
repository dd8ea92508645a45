"""CSV round-trips, filename mangling, and the SVG renderer."""
import math
import os
import re
import stat
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levylink.link_fit import SampleRow
from levylink.sde_sim import GridSpec, ModelKind, ModelSpec, simulate
from levylink.streams import RngStream
from levylink.svgplot import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    _bounds,
    render_paths_svg,
)
from levylink.trajio import (
    LINK_HEADER,
    TRAJECTORY_HEADER,
    atomic_write_text,
    format_real,
    mangle_value,
    read_link_rows_csv,
    read_trajectories_csv,
    trajectories_to_csv,
)


def simulate_paths(n_paths, seed=80, n_steps=32):
    grid = GridSpec(t_end=1.0, n_steps=n_steps)
    model = ModelSpec(kind=ModelKind.OU, lam=1.0, mu=1.0, alpha=1.3, x0=1.0)
    return [simulate(model, grid, RngStream(seed, p)) for p in range(n_paths)]


# Floats that stress the formatters: non-finite values, signed zero,
# subnormals and magnitudes near the float64 range, plus arbitrary ones.
SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 0.1, 1.0]
)
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
PATHS = st.lists(
    st.integers(0, 12).flatmap(lambda n: st.tuples(st.lists(FLOATS, min_size=n, max_size=n),
                                                   st.lists(FLOATS, min_size=n, max_size=n))),
    max_size=4,
)


def _csv_reference(trajectories):
    """The per-value CSV writer, one f-string per row."""
    lines = [",".join(TRAJECTORY_HEADER)]
    for path_id, traj in enumerate(trajectories):
        for t, x in zip(traj.times, traj.values):
            lines.append(f"{path_id},{format_real(t)},{format_real(x)}")
    return "\n".join(lines) + "\n"


def _polyline_points_reference(paths):
    """The per-point polyline loop: ``points`` of each path, scaled one value at a time."""
    times = [np.asarray(t, dtype=float) for t, _ in paths]
    values = [np.asarray(x, dtype=float) for _, x in paths]
    t_lo, t_hi = _bounds(times)
    x_lo, x_hi = _bounds(values)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(t):
        return MARGIN_LEFT + (t - t_lo) / (t_hi - t_lo) * plot_w

    def sy(x):
        return MARGIN_TOP + (x_hi - x) / (x_hi - x_lo) * plot_h

    out = []
    for t, x in zip(times, values):
        keep = np.isfinite(t) & np.isfinite(x)
        out.append(" ".join(f"{sx(ti):.2f},{sy(xi):.2f}" for ti, xi in zip(t[keep], x[keep])))
    return out


def _points(svg):
    return re.findall(r'points="([^"]*)"', svg)


@settings(max_examples=400, deadline=None)
@given(PATHS)
def test_csv_writer_matches_per_value_reference(paths):
    trajectories = [SimpleNamespace(times=np.array(t), values=np.array(x)) for t, x in paths]
    assert trajectories_to_csv(trajectories) == _csv_reference(trajectories)


@settings(max_examples=400, deadline=None)
@given(PATHS)
def test_svg_polylines_match_per_point_reference(paths):
    paths = [(np.array(t), np.array(x)) for t, x in paths]
    for arrays in ([t for t, _ in paths], [x for _, x in paths]):
        lo, hi = _bounds(arrays)
        # Spans that overflow float64 take the halving route instead.
        assume(math.isfinite(hi - lo))
    assert _points(render_paths_svg(paths)) == _polyline_points_reference(paths)


def test_format_real_round_trips_float64():
    rng = np.random.default_rng(81)
    for v in rng.normal(size=200) * 10.0 ** rng.integers(-80, 80, size=200):
        assert float(format_real(float(v))) == float(v)
    assert float(format_real(2.0**-1074)) == 2.0**-1074


def test_mangle_value_examples():
    assert mangle_value(1.5) == "1p5"
    assert mangle_value(2.0) == "2"
    assert mangle_value(0.25) == "0p25"
    assert mangle_value(1000.0) == "1000"


def test_trajectory_csv_round_trip(tmp_path):
    trajectories = simulate_paths(3)
    path = str(tmp_path / "t.csv")
    atomic_write_text(path, trajectories_to_csv(trajectories))
    back = read_trajectories_csv(path)
    assert sorted(back) == [0, 1, 2]
    for pid, traj in enumerate(trajectories):
        times, values = back[pid]
        assert np.array_equal(times, traj.times)
        assert np.array_equal(values, traj.values)


def test_trajectory_csv_shape():
    text = trajectories_to_csv(simulate_paths(2, n_steps=8))
    lines = text.strip().split("\n")
    assert lines[0] == "path_id,t,x"
    assert len(lines) == 1 + 2 * 9


def test_trajectory_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trajectories_csv(str(path))


def test_link_rows_round_trip(tmp_path):
    rows = [
        SampleRow(lam=1.0, mu=0.25, alpha=1.0, t=0.06055, x=0.4198),
        SampleRow(lam=1000.0, mu=0.25, alpha=1.75, t=0.001952, x=0.0374),
    ]
    lines = [",".join(LINK_HEADER)]
    for r in rows:
        lines.append(",".join(format_real(v) for v in (r.lam, r.mu, r.alpha, r.t, r.x)))
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(lines) + "\n")
    assert read_link_rows_csv(str(path)) == rows


def test_link_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lambda,mu,alpha,t\n1,2,1,0\n")
    with pytest.raises(ValueError):
        read_link_rows_csv(str(path))


@pytest.mark.parametrize("reader", [read_trajectories_csv, read_link_rows_csv])
def test_readers_reject_empty_file(tmp_path, reader):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="expected header"):
        reader(str(path))


@pytest.mark.parametrize(
    "reader,text",
    [
        (read_trajectories_csv, "path_id,t,x\n0,0,1\n0,0\n"),
        (read_link_rows_csv, "lambda,mu,alpha,t,x\n\n1,2,1,0\n"),
    ],
    ids=["trajectory", "link"],
)
def test_readers_reject_short_row_naming_its_line(tmp_path, reader, text):
    path = tmp_path / "short.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="line 3: expected"):
        reader(str(path))


@pytest.mark.parametrize(
    "reader,text,message",
    [
        (read_trajectories_csv, "path_id,t,x\n0,0,1\n\n0,abc,1\n",
         "line 4: could not convert string to float: 'abc'"),
        (read_trajectories_csv, "path_id,t,x\n0,0,1\nzero,0.5,1\n",
         "line 3: invalid literal for int"),
        (read_link_rows_csv, "lambda,mu,alpha,t,x\n1,2,1,0,abc\n",
         "line 2: could not convert string to float: 'abc'"),
    ],
    ids=["trajectory_float", "trajectory_path_id", "link"],
)
def test_readers_name_the_line_of_a_field_that_does_not_parse(tmp_path, reader, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        reader(str(path))


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    path = str(tmp_path / "out.csv")
    atomic_write_text(path, trajectories_to_csv(simulate_paths(1)))
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        atomic_write_text(str(tmp_path / "out.csv"), object())
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_file_mode_follows_umask(tmp_path, umask):
    path = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        atomic_write_text(str(path), "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


# ------------------------------------------------------------------------ SVG

def test_svg_is_well_formed_with_one_polyline_per_path():
    trajectories = simulate_paths(4)
    svg = render_paths_svg([(t.times, t.values) for t in trajectories])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 4


def test_svg_labels_axes():
    svg = render_paths_svg([(np.array([0.0, 1.0]), np.array([0.0, 2.0]))])
    assert ">t<" in svg
    assert "X_t" in svg


def test_svg_is_byte_reproducible():
    trajectories = simulate_paths(2)
    paths = [(t.times, t.values) for t in trajectories]
    assert render_paths_svg(paths) == render_paths_svg(paths)


def test_svg_filters_nonfinite_points():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([0.0, np.inf, 1.0, np.nan])
    svg = render_paths_svg([(times, values)])
    ET.fromstring(svg)
    assert "inf" not in svg and "nan" not in svg


def test_svg_handles_degenerate_span():
    svg = render_paths_svg([(np.array([0.0, 1.0]), np.array([5.0, 5.0]))])
    labels = [e.text for e in ET.fromstring(svg).iter() if e.tag.endswith("text")]
    assert "polyline" in svg
    # A constant path's value axis reads value -+ 0.5.
    assert labels == ["t", "X_t", "0", "1", "4.5", "5.5"]


def test_svg_handles_empty_input():
    svg = render_paths_svg([])
    ET.fromstring(svg)


def test_svg_span_overflow_keeps_points_finite():
    # x_hi - x_lo overflows float64 here; 0 must still land at mid-height.
    svg = render_paths_svg([(np.array([0.0, 1.0, 2.0]), np.array([-1e308, 0.0, 1e308]))])
    assert _points(svg) == ["70.00,550.00 425.00,285.00 780.00,20.00"]


@pytest.mark.parametrize("v", [1e300, -1e300, 2.0**53, 1.7976931348623157e308])
def test_svg_degenerate_span_of_large_values_stays_finite(v):
    # 0.5 is below the spacing of these floats, so widening by it changes nothing.
    (points,) = _points(render_paths_svg([(np.array([0.0, 1.0]), np.array([v, v]))]))
    assert "nan" not in points
    ys = {pt.split(",")[1] for pt in points.split()}
    assert len(ys) == 1 and 20.0 <= float(ys.pop()) <= 550.0
