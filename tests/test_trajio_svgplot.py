"""CSV round-trips, filename mangling, and the SVG renderer."""
import os
import stat
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from levylink.link_fit import SampleRow
from levylink.sde_sim import GridSpec, ModelKind, ModelSpec, simulate
from levylink.streams import RngStream
from levylink.svgplot import render_paths_svg
from levylink.trajio import (
    LINK_HEADER,
    atomic_write_text,
    format_real,
    mangle_value,
    read_link_rows_csv,
    read_trajectories_csv,
    trajectories_to_csv,
    write_trajectories_csv,
)


def simulate_paths(n_paths, seed=80, n_steps=32):
    grid = GridSpec(t_end=1.0, n_steps=n_steps)
    model = ModelSpec(kind=ModelKind.OU, lam=1.0, mu=1.0, alpha=1.3, x0=1.0)
    return [simulate(model, grid, RngStream(seed, p)) for p in range(n_paths)]


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
    write_trajectories_csv(path, trajectories)
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


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    path = str(tmp_path / "out.csv")
    write_trajectories_csv(path, simulate_paths(1))
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
    ET.fromstring(svg)
    assert "polyline" in svg


def test_svg_handles_empty_input():
    svg = render_paths_svg([])
    ET.fromstring(svg)
