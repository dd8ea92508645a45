"""End-to-end CLI tests driven through subprocesses."""
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylink import cli
from levylink.trajio import format_real


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "levylink", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_children_import_the_package_under_test(tmp_path, package_root):
    # Any working directory: the child must not pick up a stale installed copy.
    res = subprocess.run(
        [sys.executable, "-c", "import levylink; print(levylink.__file__)"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert Path(res.stdout.strip()).resolve().parent == package_root / "levylink"


SIMULATE = [
    "simulate", "--model", "ou", "--alpha", "1.5", "--lambda", "1", "--mu", "1",
    "--x0", "1", "--t-end", "1", "--steps", "1024", "--paths", "3",
    "--seed", "42", "--out", "t.csv",
]


def test_simulate_row_count_and_rerun_bytes(tmp_path):
    res = run_cli(SIMULATE, tmp_path)
    assert res.returncode == 0, res.stderr
    rows = read_csv_rows(tmp_path / "t.csv")
    assert rows[0] == ["path_id", "t", "x"]
    assert len(rows) == 1 + 3 * 1025
    first = (tmp_path / "t.csv").read_bytes()
    res = run_cli(SIMULATE, tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "t.csv").read_bytes() == first


def test_simulate_noise_free_ou_matches_exponential(tmp_path):
    res = run_cli(
        ["simulate", "--model", "ou", "--alpha", "1.5", "--lambda", "2", "--mu", "0",
         "--x0", "1", "--t-end", "1", "--steps", "1024", "--seed", "1", "--out", "ou.csv"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    rows = read_csv_rows(tmp_path / "ou.csv")[1:]
    for _, t, x in rows:
        assert abs(float(x) - math.exp(-2.0 * float(t))) < 2e-3


def test_simulate_overflow_is_silent(tmp_path):
    # An overflowing GLM path is a legitimate outcome, not a numpy warning.
    res = run_cli(
        ["simulate", "--model", "glm", "--lambda", "1e12", "--mu", "0", "--alpha", "1.5",
         "--t-end", "1", "--steps", "32", "--seed", "5", "--out", "big.csv"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert read_csv_rows(tmp_path / "big.csv")[-1][2] == "inf"


def test_simulate_writes_svg(tmp_path):
    res = run_cli(SIMULATE[:-2] + ["--out", "p.csv", "--svg", "p.svg"], tmp_path)
    assert res.returncode == 0, res.stderr
    root = ET.fromstring((tmp_path / "p.svg").read_text())
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 3


def test_simulate_rejects_bad_alpha(tmp_path):
    res = run_cli(
        ["simulate", "--model", "ou", "--alpha", "3", "--lambda", "1", "--mu", "1",
         "--t-end", "1", "--steps", "8", "--seed", "1", "--out", "x.csv"],
        tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "(0, 2]" in res.stderr


def test_simulate_rejects_nonpositive_paths(tmp_path):
    res = run_cli(SIMULATE[:-4] + ["0", "--seed", "1", "--out", "x.csv"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


# ---------------------------------------------------------------------- sweep

def test_sweep_product_file_count(tmp_path):
    res = run_cli(
        ["sweep", "--model", "ou", "--alphas", "0.5,1.0,1.5,1.9", "--lambdas", "1",
         "--mus", "1", "--t-end", "1", "--steps", "16", "--seed", "7",
         "--outdir", "out"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == [
        "ou_l1_m1_a0p5.csv",
        "ou_l1_m1_a1.csv",
        "ou_l1_m1_a1p5.csv",
        "ou_l1_m1_a1p9.csv",
    ]


def test_sweep_grid_of_24_with_svg(tmp_path):
    res = run_cli(
        ["sweep", "--model", "glm", "--alphas", "0.5,1.0,1.5,1.9",
         "--lambdas", "1,10,1000", "--mus", "1,10", "--t-end", "1", "--steps", "8",
         "--paths", "2", "--seed", "3", "--outdir", "grid", "--svg"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    files = list((tmp_path / "grid").iterdir())
    assert sum(p.suffix == ".csv" for p in files) == 24
    assert sum(p.suffix == ".svg" for p in files) == 24


def test_sweep_rejects_empty_alpha_list(tmp_path):
    res = run_cli(
        ["sweep", "--model", "ou", "--alphas", "", "--lambdas", "1", "--mus", "1",
         "--t-end", "1", "--steps", "8", "--seed", "1", "--outdir", "o"],
        tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize("alphas", ["1.5,1.5", "1.0000001,1.0000002"])
def test_sweep_rejects_colliding_file_names(tmp_path, alphas):
    res = run_cli(
        ["sweep", "--model", "ou", "--alphas", alphas, "--lambdas", "1", "--mus", "1",
         "--t-end", "1", "--steps", "8", "--seed", "1", "--outdir", "o"],
        tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags",
    [["--alphas", "1.5,2.5"], ["--alphas", "1.5", "--paths", "0"]],
    ids=["later_alpha", "zero_paths"],
)
def test_sweep_checks_every_combination_before_writing(tmp_path, flags):
    # An invalid later alpha or a bad --paths must leave no file and no --outdir.
    res = run_cli(
        ["sweep", "--model", "ou", "--lambdas", "1", "--mus", "1", "--t-end", "1",
         "--steps", "8", "--seed", "1", "--outdir", "o", *flags],
        tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_sweep_with_negative_seed_creates_nothing(tmp_path):
    res = run_cli(
        ["sweep", "--model", "ou", "--alphas", "1.5", "--lambdas", "1", "--mus", "1",
         "--t-end", "1", "--steps", "8", "--seed", "-1", "--outdir", "o"],
        tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_sweep_paths_use_distinct_streams(tmp_path):
    res = run_cli(
        ["sweep", "--model", "ou", "--alphas", "1.5", "--lambdas", "1", "--mus", "1",
         "--t-end", "1", "--steps", "8", "--paths", "2", "--seed", "9",
         "--outdir", "s"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    rows = read_csv_rows(tmp_path / "s" / "ou_l1_m1_a1p5.csv")[1:]
    path0 = [x for pid, _, x in rows if pid == "0"]
    path1 = [x for pid, _, x in rows if pid == "1"]
    assert path0 != path1


# ------------------------------------------------------------------- fit-link

LINK_CSV = """lambda,mu,alpha,t,x
1,0.25,1,0.06055,0.4198
1,1,1.75,0.003906,-0.1551
1,100,0.75,0.03125,18.82
10,0.25,0.5,0.02148,0.4561
1000,0.25,1.75,0.001952,0.0374
"""


def test_fit_link_report(tmp_path):
    (tmp_path / "rows.csv").write_text(LINK_CSV)
    res = run_cli(["fit-link", "--input", "rows.csv", "--out", "rep.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert float(report["rhs"]) == pytest.approx(3.23744, abs=1e-3)
    assert float(report["beta"][0]) == pytest.approx(0.00034274, rel=1e-4)
    assert "lambda" in report["equation"]
    assert json.loads((tmp_path / "rep.json").read_text()) == report


def test_fit_link_rejects_four_rows(tmp_path):
    (tmp_path / "rows.csv").write_text(
        "\n".join(LINK_CSV.strip().split("\n")[:-1]) + "\n"
    )
    res = run_cli(["fit-link", "--input", "rows.csv"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "5" in res.stderr


def test_fit_link_missing_file(tmp_path):
    res = run_cli(["fit-link", "--input", "nope.csv"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


def test_fit_link_empty_input(tmp_path):
    (tmp_path / "rows.csv").write_text("")
    res = run_cli(["fit-link", "--input", "rows.csv"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


def test_fit_link_names_the_line_of_a_bad_field(tmp_path):
    (tmp_path / "rows.csv").write_text(LINK_CSV.replace("0.4561", "abc"))
    res = run_cli(["fit-link", "--input", "rows.csv"], tmp_path)
    assert res.returncode == 1
    assert res.stderr == "error: rows.csv: line 5: could not convert string to float: 'abc'\n"


# ------------------------------------------------------------------------ rng

def test_rng_deterministic_output(tmp_path):
    args = ["rng", "--alpha", "2", "--beta", "0", "--gamma", "1", "--delta", "0",
            "--n", "5", "--seed", "7"]
    a = run_cli(args, tmp_path)
    b = run_cli(args, tmp_path)
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0, b.stderr
    assert a.stdout == b.stdout
    assert len(a.stdout.strip().split("\n")) == 5


def test_rng_values_parse_back_to_floats(tmp_path):
    res = run_cli(["rng", "--alpha", "1.3", "--beta", "0.4", "--n", "8", "--seed", "2"], tmp_path)
    assert res.returncode == 0, res.stderr
    values = [float(line) for line in res.stdout.strip().split("\n")]
    assert len(values) == 8
    assert all(np.isfinite(values))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e300]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    min_size=1, max_size=40,
))
def test_rng_text_matches_per_value_join(draws):
    # In process, with the draws replaced, so any float reaches the formatter.
    draws = np.array(draws)
    out = io.StringIO()
    with mock.patch.object(cli, "sample_n", return_value=draws), contextlib.redirect_stdout(out):
        assert cli.main(["rng", "--alpha", "1.5", "--n", str(draws.size), "--seed", "1"]) == 0
    assert out.getvalue() == "\n".join(format_real(v) for v in draws) + "\n"


def test_rng_rejects_alpha_out_of_range(tmp_path):
    res = run_cli(["rng", "--alpha", "3", "--n", "1", "--seed", "1"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "(0, 2]" in res.stderr


def test_rng_rejects_zero_count(tmp_path):
    res = run_cli(["rng", "--alpha", "1", "--n", "0", "--seed", "1"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


# -------------------------------------------------------------------- selfsim

def test_selfsim_pass_exits_zero(tmp_path):
    res = run_cli(
        ["selfsim", "--alpha", "1.5", "--c", "8", "--t", "1", "--paths", "2000",
         "--steps", "64", "--seed", "11"],
        tmp_path,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "passed=true" in res.stdout
    assert "statistic=" in res.stdout and "critical_value=" in res.stdout


def test_selfsim_statistical_fail_exits_two(tmp_path):
    # A seeded unlucky draw: the 5% test rejects even though the law matches.
    res = run_cli(
        ["selfsim", "--alpha", "2", "--c", "4", "--t", "1", "--paths", "1000",
         "--steps", "16", "--seed", "28", "--significance", "0.05"],
        tmp_path,
    )
    assert res.returncode == 2, res.stdout + res.stderr
    assert "passed=false" in res.stdout


def test_selfsim_rejects_bad_c(tmp_path):
    res = run_cli(["selfsim", "--alpha", "1.5", "--c", "-1", "--seed", "1"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


def test_selfsim_overflowing_stretch_is_an_error_line(tmp_path):
    # c**(1/alpha) = 1e600 does not fit a float64.
    res = run_cli(
        ["selfsim", "--alpha", "0.5", "--c", "1e300", "--seed", "1", "--paths", "10",
         "--steps", "4"],
        tmp_path,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    assert "c=1e+300" in res.stderr and "alpha=0.5" in res.stderr


def test_simulate_overflowing_step_scale_is_an_error_line(tmp_path):
    # dt = 2.5e299 and dt**(1/alpha) = dt**2 does not fit a float64.
    res = run_cli(
        ["simulate", "--model", "ou", "--alpha", "0.5", "--lambda", "1", "--mu", "1",
         "--t-end", "1e300", "--steps", "4", "--seed", "1", "--out", "x.csv"],
        tmp_path,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    assert "dt=" in res.stderr and "alpha=0.5" in res.stderr
    assert not (tmp_path / "x.csv").exists()


def test_rng_small_alpha_prints_no_nan(tmp_path):
    res = run_cli(["rng", "--alpha", "0.001", "--n", "6", "--seed", "3"], tmp_path)
    assert res.returncode == 0, res.stderr
    values = [float(line) for line in res.stdout.splitlines()]
    assert len(values) == 6
    assert not any(math.isnan(v) for v in values), res.stdout


@pytest.mark.parametrize(
    "argv",
    [
        # dt**(1/alpha) underflows to 0: 0 * inf increments, then NaN endpoints.
        ["selfsim", "--alpha", "1e-320", "--c", "1", "--seed", "0", "--paths", "1", "--steps", "2"],
        ["selfsim", "--alpha", "0.001", "--c", "1", "--seed", "0", "--paths", "50", "--steps", "4"],
        # dt = 1: infinite increments of both signs summed into one endpoint.
        ["selfsim", "--alpha", "0.001", "--c", "1", "--t", "4", "--seed", "0", "--paths", "50",
         "--steps", "4"],
        ["simulate", "--model", "ou", "--alpha", "0.001", "--lambda", "1", "--mu", "1",
         "--t-end", "1", "--steps", "8", "--seed", "1", "--out", "o.csv"],
        # c**(1/alpha) = 1e300 times large finite endpoints overflows.
        ["selfsim", "--alpha", "0.01", "--c", "1000", "--seed", "0", "--paths", "50",
         "--steps", "1"],
        # dt = 2: finite draws times 2**1000 overflow.
        ["simulate", "--model", "ou", "--alpha", "0.001", "--lambda", "1", "--mu", "1",
         "--t-end", "16", "--steps", "8", "--seed", "1", "--out", "o.csv"],
    ],
)
def test_tiny_alpha_commands_exit_cleanly_without_warnings(tmp_path, monkeypatch, argv):
    # In process, where a numpy RuntimeWarning is an error (pyproject filterwarnings).
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_unknown_subcommand_is_an_error(tmp_path):
    res = run_cli(["frobnicate"], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


# ----------------------------------------------------------- contract property

# Each flag's values as (usual, rare): the rare ones are malformed or out of
# range. Counts stay at 3 or below, so no example runs long.
REAL = (["1", "1.5", "0.5", "2"], ["0", "-1", "2.5", "nan", "inf", "-inf", "1e308", "1e-320", "x", ""])
COUNT = (["1", "2", "3"], ["0", "-1", "1.5", "x", ""])
LIST = (["1", "1,2", "0.5,1.5"], ["1.5,1.5", ",", "", "a,1", "nan", "2.5", "1,inf"])
MODEL = (["ou", "glm"], ["x"])
OUT = (["o.csv"], [".", "", "d/o.csv", "rows.csv"])
FLAGS = {
    "simulate": {"--model": MODEL, "--alpha": REAL, "--lambda": REAL, "--mu": REAL,
                 "--x0": REAL, "--t-end": REAL, "--steps": COUNT, "--paths": COUNT,
                 "--seed": COUNT, "--no-jumps": None, "--out": OUT,
                 "--svg": (["o.svg"], [".", "d/o.svg"])},
    "sweep": {"--model": MODEL, "--alphas": LIST, "--lambdas": LIST, "--mus": LIST,
              "--x0": REAL, "--t-end": REAL, "--steps": COUNT, "--paths": COUNT,
              "--seed": COUNT, "--outdir": (["d"], ["rows.csv", ""]), "--svg": None},
    "fit-link": {"--input": (["rows.csv"], ["four.csv", "bad.csv", "nope.csv", ".", ""]),
                 "--out": OUT},
    "rng": {"--alpha": REAL, "--beta": (["0", "0.5", "-1"], REAL[1]), "--gamma": REAL,
            "--delta": REAL, "--n": COUNT, "--seed": COUNT, "--out": OUT},
    "selfsim": {"--alpha": REAL, "--c": REAL, "--t": REAL, "--seed": COUNT,
                "--significance": (["0.05", "0.01"], ["0.1", "x"]),
                # The defaults draw 2.56 million variates; keep them small.
                "--paths": COUNT, "--steps": COUNT},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*FLAGS, "frobnicate"]))
    argv = [command]
    for flag, values in FLAGS.get(command, {}).items():
        if command == "selfsim" and flag in ("--paths", "--steps"):
            pass
        elif not draw(st.integers(0, 15)):
            continue
        if values is None:
            argv += [flag] if draw(st.booleans()) else []
        else:
            usual, rare = values
            argv += [flag, draw(st.sampled_from(rare if not draw(st.integers(0, 9)) else usual))]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--", "-x", "1"])))
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_cli_contract_holds_for_any_argv(tmp_path_factory, argv):
    # In process: an uncaught exception here is the traceback a user would see.
    work = tmp_path_factory.mktemp("argv")
    (work / "rows.csv").write_text(LINK_CSV)
    (work / "four.csv").write_text(LINK_CSV.rsplit("\n", 2)[0] + "\n")
    (work / "bad.csv").write_text("lambda,mu,alpha,t,x\n1,2,abc\n")
    out, err = io.StringIO(), io.StringIO()
    cwd = Path.cwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    stderr = err.getvalue()
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code == 1:
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
