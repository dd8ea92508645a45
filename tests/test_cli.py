"""End-to-end CLI tests, in process and, where the child is the contract, in subprocesses."""
import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
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


def run_in_process(argv, cwd):
    """``cli.main(argv)`` in ``cwd``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    here = Path.cwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


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


def test_list_flags_skip_blank_items():
    # A trailing or doubled comma is harmless; a list of only blanks is refused.
    assert cli._float_list("1.5, ,2,,") == [1.5, 2.0]
    with pytest.raises(argparse.ArgumentTypeError):
        cli._float_list(" , ")


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


@pytest.mark.parametrize("model, paths", [("ou", "2"), ("glm", "1")])
def test_simulate_writes_the_bytes_of_a_one_combination_sweep(tmp_path, model, paths):
    # Both commands draw path p of combination i on substream i * paths + p.
    flags = ["--model", model, "--t-end", "1", "--steps", "16", "--paths", paths, "--seed", "5"]
    simulate = ["simulate", *flags, "--alpha", "1.5", "--lambda", "2", "--mu", "0.5",
                "--out", "s.csv", "--svg", "s.svg"]
    sweep = ["sweep", *flags, "--alphas", "1.5", "--lambdas", "2", "--mus", "0.5",
             "--outdir", "d", "--svg"]
    assert run_in_process(simulate, tmp_path) == run_in_process(sweep, tmp_path) == (0, "", "")
    rows = read_csv_rows(tmp_path / "s.csv")[1:]
    assert sorted({pid for pid, _, _ in rows}) == [str(p) for p in range(int(paths))]
    for ext in ("csv", "svg"):
        swept = tmp_path / "d" / f"{model}_l2_m0p5_a1p5.{ext}"
        assert (tmp_path / f"s.{ext}").read_bytes() == swept.read_bytes()


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


@pytest.mark.parametrize("out", ["rows.csv", "./rows.csv", "link.csv"])
def test_fit_link_refuses_an_out_that_is_the_input(tmp_path, out):
    (tmp_path / "rows.csv").write_text(LINK_CSV)
    (tmp_path / "link.csv").symlink_to("rows.csv")
    code, stdout, err = run_in_process(["fit-link", "--input", "rows.csv", "--out", out], tmp_path)
    assert (code, stdout) == (1, "")
    assert err == f"error: --out {out!r} and --input 'rows.csv' name the same file\n"
    assert (tmp_path / "rows.csv").read_text() == LINK_CSV
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "rows.csv"]


def test_fit_link_refuses_its_out_before_it_reads(tmp_path, monkeypatch):
    # Refuse paths, compute, write, print: a bad --out wins over a bad input.
    from levylink import trajio

    reads, real_read = [], trajio.read_link_rows_csv
    monkeypatch.setattr(trajio, "read_link_rows_csv",
                        lambda path: reads.append(path) or real_read(path))
    (tmp_path / "four.csv").write_text(LINK_CSV.rsplit("\n", 2)[0] + "\n")
    out = os.path.join("nodir", "r.json")
    code, stdout, err = run_in_process(["fit-link", "--input", "four.csv", "--out", out], tmp_path)
    assert (code, stdout) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"
    assert reads == []
    assert [p.name for p in tmp_path.iterdir()] == ["four.csv"]


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
    with mock.patch("levylink.stable_rng.sample_n", return_value=draws), \
            contextlib.redirect_stdout(out):
        assert cli.main(["rng", "--alpha", "1.5", "--n", str(draws.size), "--seed", "1"]) == 0
    assert out.getvalue() == "\n".join(format_real(v) for v in draws) + "\n"


def test_rng_out_holds_what_stdout_would_and_prints_nothing(tmp_path):
    argv = ["rng", "--alpha", "1.5", "--n", "3", "--seed", "1"]
    code, printed, err = run_in_process(argv, tmp_path)
    assert (code, err) == (0, "")
    assert run_in_process([*argv, "--out", "x.txt"], tmp_path) == (0, "", "")
    assert (tmp_path / "x.txt").read_text() == printed


# The commands whose --out is optional and whose output is printed without it.
OPTIONAL_OUT = {"rng": ["rng", "--alpha", "1.5", "--n", "2", "--seed", "1"],
                "fit_link": ["fit-link", "--input", "rows.csv"]}


@pytest.mark.parametrize("argv", list(OPTIONAL_OUT.values()), ids=list(OPTIONAL_OUT))
def test_an_empty_out_writes_no_file(tmp_path, argv):
    # As for simulate's --svg "": the output is printed and nothing is written.
    (tmp_path / "rows.csv").write_text(LINK_CSV)
    printed = run_in_process(argv, tmp_path)
    assert printed[0] == 0 and printed[1]
    assert run_in_process([*argv, "--out", ""], tmp_path) == printed
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


@pytest.mark.parametrize("argv", list(OPTIONAL_OUT.values()), ids=list(OPTIONAL_OUT))
def test_out_replaces_a_link_and_leaves_its_target(tmp_path, argv):
    # The write renames a finished file over the link; it never writes through it.
    (tmp_path / "rows.csv").write_text(LINK_CSV)
    (tmp_path / "keep.txt").write_text("keep\n")
    (tmp_path / "lnk").symlink_to("keep.txt")
    code, _, err = run_in_process([*argv, "--out", "lnk"], tmp_path)
    assert (code, err) == (0, "")
    assert not (tmp_path / "lnk").is_symlink()
    assert (tmp_path / "keep.txt").read_text() == "keep\n"


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


def test_simulate_without_jumps_accepts_a_step_whose_scale_would_overflow(tmp_path):
    # --no-jumps draws no stable noise, so dt**(1/alpha) is never formed.
    res = run_cli(
        ["simulate", "--model", "glm", "--no-jumps", "--alpha", "0.5", "--lambda", "1",
         "--mu", "1", "--t-end", "1e300", "--steps", "4", "--seed", "1", "--out", "g.csv"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert len(read_csv_rows(tmp_path / "g.csv")) == 1 + 5


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
        ["selfsim", "--alpha", "1e-320", "--c", "1", "--seed", "0", "--paths", "6", "--steps", "2"],
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
        # A GLM path from x0 = 0 meets a factor that overflowed to inf: 0 * inf.
        ["simulate", "--model", "glm", "--alpha", "0.3", "--lambda", "1", "--mu", "1e290",
         "--x0", "0", "--t-end", "8e6", "--steps", "8", "--seed", "1", "--out", "o.csv"],
        # mu * sqrt(dt) = 1e308 times a normal draw above 1.8 overflows the Brownian term.
        ["simulate", "--model", "glm", "--alpha", "1", "--lambda", "1", "--mu", "1e308",
         "--t-end", "1", "--steps", "1", "--seed", "3", "--out", "o.csv"],
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


# Each size asks numpy for more than 2**47 bytes at once, beyond any user
# address space, so the allocation fails before any memory is touched.
@pytest.mark.parametrize(
    "argv",
    [
        ["rng", "--alpha", "1.5", "--n", "1000000000000000", "--seed", "1"],
        ["simulate", "--model", "ou", "--alpha", "1.5", "--lambda", "1", "--mu", "1",
         "--t-end", "1", "--steps", "1000000000000000", "--seed", "1", "--out", "a.csv"],
        ["selfsim", "--alpha", "1.5", "--c", "2", "--paths", "1000000000000", "--steps",
         "100000", "--seed", "1"],
    ],
    ids=["rng", "simulate", "selfsim"],
)
def test_failed_allocation_is_an_error_line(tmp_path, argv):
    res = run_cli(argv, tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------- lazy imports

def run_python(args, cwd):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "args, code",
    [
        (["-m", "levylink", "--help"], 0),
        (["-m", "levylink", "simulate"], 1),
        (["-m", "levylink", "frobnicate"], 1),
        (["-c", "import levylink"], 0),
    ],
    ids=["help", "usage_error", "unknown_subcommand", "import_package"],
)
def test_no_work_paths_do_not_import_numpy(tmp_path, args, code):
    res = run_python(["-X", "importtime", *args], tmp_path)
    assert res.returncode == code, res.stderr
    # importtime lines end with "| <indent><module name>".
    loaded = [line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
              if line.startswith("import time:")]
    assert "levylink" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]


PACKAGE_CHECKS = {
    "names_are_the_defining_modules_objects": """
import sys, levylink
for name in levylink.__all__:
    if name != "__version__":
        obj = getattr(levylink, name)
        assert obj.__module__.startswith("levylink."), (name, obj.__module__)
        assert obj is getattr(sys.modules[obj.__module__], name), name
assert set(levylink.__all__) <= set(dir(levylink))
""",
    "star_import_binds_all": """
import levylink
ns = {}
exec("from levylink import *", ns)
del ns["__builtins__"]
assert sorted(ns) == sorted(levylink.__all__), sorted(ns)
""",
    "submodule_after_plain_import": """
import levylink
assert levylink.sde_sim.simulate is levylink.simulate
assert levylink.sde_sim.ModelKind("ou") is levylink.ModelKind.OU
""",
    "unknown_attribute": """
import levylink
try:
    levylink.no_such_name
except AttributeError as exc:
    assert "'levylink'" in str(exc) and "no_such_name" in str(exc), exc
else:
    raise AssertionError("no AttributeError")
""",
    "missing_dependency_propagates": """
import sys
sys.modules["numpy"] = None
import levylink
try:
    levylink.sde_sim
except ModuleNotFoundError as exc:
    assert exc.name == "numpy", exc
else:
    raise AssertionError("no ModuleNotFoundError")
""",
}


@pytest.mark.parametrize("check", list(PACKAGE_CHECKS))
def test_package_names_resolve_lazily(tmp_path, check):
    res = run_python(["-c", PACKAGE_CHECKS[check]], tmp_path)
    assert res.returncode == 0, res.stderr


def test_model_choices_are_the_model_kinds():
    from levylink.noise_stats import _KS_COEFF
    from levylink.sde_sim import ModelKind

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name in ("simulate", "sweep"):
        (model,) = [a for a in commands.choices[name]._actions if a.dest == "model"]
        assert list(model.choices) == [k.value for k in ModelKind]
    # The same holds for the significance levels of noise_stats' KS table.
    (significance,) = [a for a in commands.choices["selfsim"]._actions
                       if a.dest == "significance"]
    assert sorted(significance.choices) == sorted(_KS_COEFF)


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
    "fit-link": {"--input": (["rows.csv"], ["four.csv", "bad.csv", "big.csv", "latin.csv",
                                            "nope.csv", ".", ""]),
                 "--out": OUT},
    "rng": {"--alpha": REAL, "--beta": (["0", "0.5", "-1"], REAL[1]), "--gamma": REAL,
            "--delta": REAL, "--n": COUNT, "--seed": COUNT, "--out": OUT},
    "selfsim": {"--alpha": REAL, "--c": REAL, "--t": REAL, "--seed": COUNT,
                "--significance": (["0.05", "0.01"], ["0.1", "x"]),
                # The defaults draw 2.56 million variates; keep them small.
                "--paths": COUNT, "--steps": COUNT},
}


def tree_bytes(root):
    """Every path under ``root`` with its bytes, a link's target or None for a directory."""
    return {
        p.relative_to(root).as_posix(): os.readlink(p) if p.is_symlink()
        else None if p.is_dir() else p.read_bytes()
        for p in root.rglob("*")
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
    (work / "big.csv").write_text(LINK_CSV.replace("0.4198", "1" * 131_073))
    (work / "latin.csv").write_bytes(LINK_CSV.replace("0.4198", "0.4\xff").encode("latin-1"))
    before = tree_bytes(work)
    code, stdout, stderr = run_in_process(argv, work)
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code == 1:
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
        assert stdout == "", stdout
        assert tree_bytes(work) == before


# ------------------------------------------------------------ validation sites

SIM_FLAGS = ["--model", "ou", "--mu", "1", "--t-end", "1", "--steps", "8", "--seed", "1",
             "--out", "o.csv"]
SELFSIM_FLAGS = ["--seed", "1", "--paths", "5", "--steps", "2"]
RNG_FLAGS = ["--n", "1", "--seed", "1"]
SWEEP_FLAGS = ["sweep", "--model", "ou", "--lambdas", "1", "--mus", "1", "--t-end", "1",
               "--steps", "8", "--seed", "1"]

# One refused input per validation site, with the exact line it prints: a new
# refusal is a new row (an output path's, of UNWRITABLE or FIFO_OUTPUTS below).
ERROR_LINES = {
    "stable_alpha": (["rng", "--alpha", "3", *RNG_FLAGS],
                     "alpha=3.0 must lie in the interval (0, 2]"),
    "stable_alpha_nan": (["rng", "--alpha", "nan", *RNG_FLAGS],
                         "alpha=nan must lie in the interval (0, 2]"),
    "stable_beta": (["rng", "--alpha", "1.5", "--beta", "2", *RNG_FLAGS],
                    "beta=2.0 must lie in the interval [-1, 1]"),
    "stable_gamma": (["rng", "--alpha", "1.5", "--gamma", "-1", *RNG_FLAGS],
                     "gamma=-1.0 must lie in the interval [0, inf)"),
    "stable_delta": (["rng", "--alpha", "1.5", "--delta", "inf", *RNG_FLAGS],
                     "delta=inf must lie in the finite reals"),
    "rng_count": (["rng", "--alpha", "1.5", "--n", "0", "--seed", "1"],
                  "n=0 must be a positive integer"),
    "rng_alpha_before_count": (["rng", "--alpha", "3", "--n", "0", "--seed", "1"],
                               "alpha=3.0 must lie in the interval (0, 2]"),
    "rng_seed_before_alpha": (["rng", "--alpha", "3", "--n", "1", "--seed", "-1"],
                              "seed and stream_id must be non-negative"),
    "simulate_seed_before_alpha": (["simulate", "--alpha", "3", "--lambda", "1", *SIM_FLAGS,
                                    "--seed", "-1"],
                                   "seed and stream_id must be non-negative"),
    "simulate_seed_before_steps": (["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS,
                                    "--steps", "0", "--seed", "-1"],
                                   "seed and stream_id must be non-negative"),
    "sweep_seed_before_alpha": (["sweep", "--model", "ou", "--alphas", "3", "--lambdas", "1",
                                 "--mus", "1", "--t-end", "1", "--steps", "8", "--seed", "-1",
                                 "--outdir", "d"],
                                "seed and stream_id must be non-negative"),
    "model_alpha": (["simulate", "--alpha", "3", "--lambda", "1", *SIM_FLAGS],
                    "alpha=3.0 must lie in the interval (0, 2]"),
    "model_lam_before_alpha": (["simulate", "--alpha", "3", "--lambda", "-1", *SIM_FLAGS],
                               "lam=-1.0 must be a positive real"),
    "model_mu": (["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS, "--mu", "-1"],
                 "mu=-1.0 must be a non-negative real"),
    "model_x0": (["simulate", "--alpha", "1.5", "--lambda", "1", "--x0", "nan", *SIM_FLAGS],
                 "x0=nan must be finite"),
    "ou_no_jumps": (["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS, "--no-jumps"],
                    "with_jumps=False needs kind=glm: the OU model has only jump noise"),
    "grid_t_end": (["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS, "--t-end", "0"],
                   "t_end=0.0 must be a positive real"),
    "grid_steps": (["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS, "--steps", "0"],
                   "n_steps=0 must be a positive integer"),
    # GLM without jumps draws only normals, so no stable draw ever saw the step.
    "grid_dt": (["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS, "--model", "glm",
                 "--no-jumps", "--t-end", "5e-324", "--steps", "2"],
                "dt=0.0 must be a positive real"),
    "paths": (["simulate", "--alpha", "1.5", "--lambda", "1", "--paths", "0", *SIM_FLAGS],
              "paths=0 must be a positive integer"),
    "step_scale": (["simulate", "--alpha", "0.01", "--lambda", "1", *SIM_FLAGS,
                    "--t-end", "1e300"],
                   "dt**(1/alpha) overflows float64 for dt=1.25e+299, alpha=0.01"),
    # mu = 0 draws no stable noise, but the step is refused as at mu = 1.
    "step_scale_zero_mu": (["simulate", "--alpha", "0.5", "--lambda", "1", *SIM_FLAGS,
                            "--mu", "0", "--t-end", "1e300", "--steps", "4"],
                           "dt**(1/alpha) overflows float64 for dt=2.5e+299, alpha=0.5"),
    "sweep_alpha": (["sweep", "--model", "ou", "--alphas", "1.5,3", "--lambdas", "1",
                     "--mus", "1", "--t-end", "1", "--steps", "8", "--seed", "1",
                     "--outdir", "d"],
                    "alpha=3.0 must lie in the interval (0, 2]"),
    "sweep_paths": ([*SWEEP_FLAGS, "--alphas", "1.5", "--paths", "0", "--outdir", "d"],
                    "paths=0 must be a positive integer"),
    # Every combination's step is checked before --outdir is made.
    "sweep_step_scale": ([*SWEEP_FLAGS, "--alphas", "1.5,0.5", "--t-end", "1e300", "--steps", "4",
                          "--outdir", "d"],
                         "dt**(1/alpha) overflows float64 for dt=2.5e+299, alpha=0.5"),
    # %g file names: a repeated value, and two that differ past six digits.
    "sweep_repeated_name": ([*SWEEP_FLAGS, "--alphas", "1.5,1.5", "--outdir", "d"],
                            "--outdir files {0!r} and {0!r} name the same file"
                            .format(os.path.join("d", "ou_l1_m1_a1p5.csv"))),
    "sweep_colliding_names": ([*SWEEP_FLAGS, "--alphas", "1.0000001,1.0000002", "--outdir", "d"],
                              "--outdir files {0!r} and {0!r} name the same file"
                              .format(os.path.join("d", "ou_l1_m1_a1.csv"))),
    # A flag's type error goes through _Parser.error.
    "sweep_empty_list": ([*SWEEP_FLAGS, "--alphas", "", "--outdir", "d"],
                         "argument --alphas: expected a nonempty comma-separated list of reals"),
    "model_alpha_before_svg_clash": (["simulate", "--alpha", "3", "--lambda", "1", *SIM_FLAGS[:-1],
                                      "same.out", "--svg", "same.out"],
                                     "alpha=3.0 must lie in the interval (0, 2]"),
    "noise_alpha_before_c": (["selfsim", "--alpha", "3", "--c", "-1", *SELFSIM_FLAGS],
                             "alpha=3.0 must lie in the interval (0, 2]"),
    "selfsim_c": (["selfsim", "--alpha", "1.5", "--c", "-1", *SELFSIM_FLAGS],
                  "c=-1.0 must be a positive real"),
    "selfsim_t": (["selfsim", "--alpha", "1.5", "--c", "2", "--t", "0", *SELFSIM_FLAGS],
                  "t=0.0 must be a positive real"),
    "selfsim_paths": (["selfsim", "--alpha", "1.5", "--c", "2", *SELFSIM_FLAGS, "--paths", "0"],
                      "n_paths=0 must be a positive integer"),
    "selfsim_steps": (["selfsim", "--alpha", "1.5", "--c", "2", *SELFSIM_FLAGS, "--steps", "0"],
                      "n_steps=0 must be a positive integer"),
    "selfsim_horizon": (["selfsim", "--alpha", "1.5", "--c", "1e200", "--t", "1e200",
                         *SELFSIM_FLAGS],
                        "c*t overflows float64 for c=1e+200, t=1e+200"),
    "selfsim_stretch": (["selfsim", "--alpha", "0.01", "--c", "1e10", *SELFSIM_FLAGS],
                        "c**(1/alpha) overflows float64 for c=10000000000.0, alpha=0.01"),
    # A KS statistic is at most 1, so below these sizes the check could not fail.
    "selfsim_too_few_paths": (["selfsim", "--alpha", "1.5", "--c", "1e6", "--paths", "5",
                               "--steps", "4", "--seed", "1"],
                              "n_paths=5 cannot fail a KS check at significance 0.01; "
                              "use n_paths >= 6"),
    "selfsim_too_few_paths_at_5pc": (["selfsim", "--alpha", "1.5", "--c", "1e6", "--paths", "3",
                                      "--steps", "4", "--seed", "1", "--significance", "0.05"],
                                     "n_paths=3 cannot fail a KS check at significance 0.05; "
                                     "use n_paths >= 4"),
    "row_alpha": (["fit-link", "--input", "alpha.csv"],
                  "alpha.csv: line 2: alpha=3.0 must lie in the interval (0, 2]"),
    "row_finite": (["fit-link", "--input", "nan.csv"],
                   "nan.csv: line 2: alpha=nan must be finite"),
    "row_t": (["fit-link", "--input", "t.csv"], "t.csv: line 2: t=-0.2 must be non-negative"),
    "row_file": (["fit-link", "--input", "nope.csv"],
                 "[Errno 2] No such file or directory: 'nope.csv'"),
    "row_header": (["fit-link", "--input", "empty.csv"],
                   "expected header 'lambda,mu,alpha,t,x', got ()"),
    "row_field": (["fit-link", "--input", "abc.csv"],
                  "abc.csv: line 5: could not convert string to float: 'abc'"),
    "row_field_count": (["fit-link", "--input", "short.csv"],
                        "short.csv: line 3: expected 5 fields, got 4"),
    "row_count": (["fit-link", "--input", "four.csv"], "link fit needs exactly 5 rows, got 4"),
    "row_field_limit": (["fit-link", "--input", "big.csv"],
                        "big.csv: line 2: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("case", list(ERROR_LINES))
def test_each_validation_site_prints_its_error_line(tmp_path, case):
    argv, line = ERROR_LINES[case]
    first, rest = LINK_CSV.split("\n", 2)[1:]
    (tmp_path / "alpha.csv").write_text(LINK_CSV.replace(first, "1,0.25,3,0.06055,0.4198"))
    (tmp_path / "nan.csv").write_text(LINK_CSV.replace(first, "1,0.25,nan,0.06055,0.4198"))
    (tmp_path / "t.csv").write_text(LINK_CSV.replace(first, "1,0.25,1,-0.2,0.4198"))
    (tmp_path / "four.csv").write_text(LINK_CSV.rsplit("\n", 2)[0] + "\n")
    (tmp_path / "big.csv").write_text(LINK_CSV.replace("0.4198", "1" * 131_073))
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "abc.csv").write_text(LINK_CSV.replace("0.4561", "abc"))
    (tmp_path / "short.csv").write_text(LINK_CSV.replace("1,1,1.75,", "1,1.75,"))
    before = sorted(tmp_path.iterdir())
    code, out, err = run_in_process(argv, tmp_path)
    assert (code, out, err) == (1, "", f"error: {line}\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("target", ["nodir/x.txt", "adir"], ids=["missing_dir", "directory"])
def test_failed_write_names_the_users_path_on_every_run(tmp_path, target):
    (tmp_path / "adir").mkdir()
    argv = ["rng", "--alpha", "1.5", "--n", "2", "--seed", "1", "--out", target]
    first, second = run_cli(argv, tmp_path), run_cli(argv, tmp_path)
    assert first.returncode == second.returncode == 1
    assert first.stderr == second.stderr
    assert first.stderr.startswith("error:") and first.stderr.count("\n") == 1, first.stderr
    assert f"'{target}'" in first.stderr and ".tmp~" not in first.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize("svg", ["same.out", "./same.out", "link.out"])
def test_simulate_refuses_an_svg_that_is_the_csv(tmp_path, svg):
    (tmp_path / "link.out").symlink_to("same.out")
    argv = ["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS[:-1], "same.out",
            "--svg", svg]
    code, out, err = run_in_process(argv, tmp_path)
    assert (code, out) == (1, "")
    assert err == f"error: --svg {svg!r} and --out 'same.out' name the same file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.out"]


def test_sweep_refuses_an_svg_that_is_its_csv_before_writing(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "ou_l1_m1_a1p5.svg").symlink_to("ou_l1_m1_a1p5.csv")
    argv = ["sweep", "--model", "ou", "--alphas", "1.2,1.5", "--lambdas", "1", "--mus", "1",
            "--t-end", "1", "--steps", "8", "--seed", "1", "--outdir", "d", "--svg"]
    code, out, err = run_in_process(argv, tmp_path)
    assert (code, out) == (1, "")
    # sweep has no --out and its --svg takes no path: the message names the two files.
    svg, csv = os.path.join("d", "ou_l1_m1_a1p5.svg"), os.path.join("d", "ou_l1_m1_a1p5.csv")
    assert err == f"error: --outdir files {svg!r} and {csv!r} name the same file\n"
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["ou_l1_m1_a1p5.svg"]


# (argv, directories and files made first, the error the first failing open raises);
# rows.csv always holds the five link rows.
UNWRITABLE = {
    "simulate_svg_in_no_dir": (
        ["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS[:-1], "ok.csv",
         "--svg", os.path.join("nodir", "p.svg")],
        [], [], "[Errno 2] No such file or directory: {!r}".format(os.path.join("nodir", "p.svg"))),
    "simulate_svg_under_a_file": (
        ["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS[:-1], "ok.csv",
         "--svg", os.path.join("f", "p.svg")],
        [], ["f"], "[Errno 20] Not a directory: {!r}".format(os.path.join("f", "p.svg"))),
    "simulate_svg_is_a_directory": (
        ["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS[:-1], "ok.csv", "--svg", "d"],
        ["d"], [], "[Errno 21] Is a directory: 'd'"),
    "sweep_later_csv_is_a_directory": (
        [*SWEEP_FLAGS, "--alphas", "1.5,1.2", "--outdir", "d"],
        [os.path.join("d", "ou_l1_m1_a1p2.csv")], [],
        "[Errno 21] Is a directory: {!r}".format(os.path.join("d", "ou_l1_m1_a1p2.csv"))),
    "sweep_svg_is_a_directory": (
        [*SWEEP_FLAGS, "--alphas", "1.5", "--outdir", "f", "--svg"],
        [os.path.join("f", "ou_l1_m1_a1p5.svg")], [],
        "[Errno 21] Is a directory: {!r}".format(os.path.join("f", "ou_l1_m1_a1p5.svg"))),
    # An --outdir that is a file holds no outputs to check; making it refuses.
    "sweep_outdir_is_a_file": (
        [*SWEEP_FLAGS, "--alphas", "1.5", "--outdir", "f"], [], ["f"], "[Errno 17] File exists: 'f'"),
    "sweep_outdir_empty": ([*SWEEP_FLAGS, "--alphas", "1.5", "--outdir", ""], [], [],
                           "[Errno 2] No such file or directory: ''"),
    # fit-link writes its report before it prints it.
    "fit_link_out_in_no_dir": (
        ["fit-link", "--input", "rows.csv", "--out", os.path.join("nodir", "r.json")],
        [], [], "[Errno 2] No such file or directory: {!r}".format(os.path.join("nodir", "r.json"))),
    "fit_link_out_is_a_directory": (
        ["fit-link", "--input", "rows.csv", "--out", "d"], ["d"], [], "[Errno 21] Is a directory: 'd'"),
    # fit-link refuses an --input as its read would, with the same line.
    # "" names no file, so it shares none with --out ".".
    "fit_link_input_empty": (["fit-link", "--input", "", "--out", "."], [], [],
                             "[Errno 2] No such file or directory: ''"),
    "fit_link_input_is_a_directory": (["fit-link", "--input", ".", "--out", "r.json"], [], [],
                                      "[Errno 21] Is a directory: '.'"),
    "fit_link_input_in_no_dir": (
        ["fit-link", "--input", os.path.join("nodir", "x.csv")], [], [],
        "[Errno 2] No such file or directory: {!r}".format(os.path.join("nodir", "x.csv"))),
    "fit_link_input_under_a_file": (
        ["fit-link", "--input", os.path.join("f", "x.csv"), "--out", "r.json"], [], ["f"],
        "[Errno 20] Not a directory: {!r}".format(os.path.join("f", "x.csv"))),
    # Drawing 10**12 variates would need 7.28 TiB: rng refuses --out before it draws.
    "rng_out_in_no_dir": (
        ["rng", "--alpha", "1.5", "--n", "1000000000000", "--seed", "1", "--out",
         os.path.join("nodir", "x.txt")],
        [], [], "[Errno 2] No such file or directory: {!r}".format(os.path.join("nodir", "x.txt"))),
}


def file_tree(root):
    return sorted((p.relative_to(root).as_posix(), p.is_dir()) for p in root.rglob("*"))


@pytest.mark.parametrize("case", list(UNWRITABLE))
def test_an_output_the_write_would_refuse_is_refused_before_any_write(tmp_path, case):
    argv, dirs, files, line = UNWRITABLE[case]
    (tmp_path / "rows.csv").write_text(LINK_CSV)
    for d in dirs:
        (tmp_path / d).mkdir(parents=True)
    for f in files:
        (tmp_path / f).write_text("keep\n")
    before = file_tree(tmp_path)
    assert run_in_process(argv, tmp_path) == (1, "", f"error: {line}\n")
    assert file_tree(tmp_path) == before
    assert [(tmp_path / f).read_text() for f in files] == ["keep\n"] * len(files)


# An output that exists as a FIFO (or a device or socket) would be replaced by
# the rename, and opening it to check would block: lstat alone refuses it,
# before rng's draw of 10**15 variates could fail to allocate 7.11 PiB.
FIFO_OUTPUTS = {
    "rng_out": (["rng", "--alpha", "1.5", "--n", "1000000000000000", "--seed", "1",
                 "--out", "p"], "p"),
    "simulate_out": (["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS[:-1], "p"], "p"),
    "simulate_svg": (["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS, "--svg", "p"],
                     "p"),
    "fit_link_out": (["fit-link", "--input", "rows.csv", "--out", "p"], "p"),
    "sweep_csv_in_outdir": ([*SWEEP_FLAGS, "--alphas", "1.5", "--outdir", "d"],
                            os.path.join("d", "ou_l1_m1_a1p5.csv")),
    "sweep_svg_in_outdir": ([*SWEEP_FLAGS, "--alphas", "1.5", "--outdir", "d", "--svg"],
                            os.path.join("d", "ou_l1_m1_a1p5.svg")),
    # Every combination's outputs are checked before the first is written.
    "sweep_later_csv_in_outdir": ([*SWEEP_FLAGS, "--alphas", "1.5,1.2", "--outdir", "d"],
                                  os.path.join("d", "ou_l1_m1_a1p2.csv")),
}


@pytest.mark.parametrize("case", list(FIFO_OUTPUTS))
def test_an_output_that_is_a_fifo_is_refused_before_any_work(tmp_path, case):
    argv, fifo = FIFO_OUTPUTS[case]
    (tmp_path / "rows.csv").write_text(LINK_CSV)
    (tmp_path / "d").mkdir()
    os.mkfifo(tmp_path / fifo)
    before = file_tree(tmp_path)
    error = f"error: {fifo!r} exists and is not a regular file\n"
    assert run_in_process(argv, tmp_path) == (1, "", error)
    assert file_tree(tmp_path) == before
    assert stat.S_ISFIFO(os.lstat(tmp_path / fifo).st_mode)  # file_tree sees a file


def test_an_output_that_is_a_socket_is_refused_before_any_work(tmp_path, monkeypatch):
    import socket

    monkeypatch.chdir(tmp_path)  # a relative name keeps the bind under the 108-byte limit
    with socket.socket(socket.AF_UNIX) as sock:
        sock.bind("s")
        argv = ["rng", "--alpha", "1.5", "--n", "1000000000000000", "--seed", "1", "--out", "s"]
        error = "error: 's' exists and is not a regular file\n"
        assert run_in_process(argv, tmp_path) == (1, "", error)
        assert stat.S_ISSOCK(os.lstat(tmp_path / "s").st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s"]


def test_out_replaces_a_link_to_a_fifo_and_sends_the_fifo_nothing(tmp_path):
    # The link rule holds whatever the target is; the held read end keeps a
    # write through the link from blocking, so such a write would show as bytes.
    os.mkfifo(tmp_path / "p")
    (tmp_path / "lnk").symlink_to("p")
    fd = os.open(tmp_path / "p", os.O_RDONLY | os.O_NONBLOCK)
    try:
        argv = ["rng", "--alpha", "1.5", "--n", "2", "--seed", "1"]
        printed = run_in_process(argv, tmp_path)
        assert run_in_process([*argv, "--out", "lnk"], tmp_path) == (0, "", "")
        assert (tmp_path / "lnk").read_text() == printed[1]
        try:
            assert os.read(fd, 1) == b""
        except BlockingIOError:
            pass
    finally:
        os.close(fd)
    assert not (tmp_path / "lnk").is_symlink()
    assert stat.S_ISFIFO(os.lstat(tmp_path / "p").st_mode)


def test_fit_link_reads_an_input_that_is_a_fifo(tmp_path):
    # Only outputs must be regular files: a pipe is read as a file is.
    (tmp_path / "rows.csv").write_text(LINK_CSV)
    report = run_in_process(["fit-link", "--input", "rows.csv"], tmp_path)
    os.mkfifo(tmp_path / "p")
    writer = threading.Thread(target=(tmp_path / "p").write_text, args=(LINK_CSV,), daemon=True)
    writer.start()
    assert run_in_process(["fit-link", "--input", "p"], tmp_path) == report
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert report[0] == 0 and json.loads(report[1])["equation"]


def test_simulate_replaces_a_link_to_a_directory_as_any_write_replaces_a_link(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "lnk").symlink_to("sub")
    argv = ["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS, "--svg", "lnk"]
    assert run_in_process(argv, tmp_path) == (0, "", "")
    assert not (tmp_path / "lnk").is_symlink()
    assert (tmp_path / "lnk").read_text().startswith("<?xml")
    assert list((tmp_path / "sub").iterdir()) == []


def test_simulate_refuses_an_empty_out_before_it_simulates(tmp_path, monkeypatch):
    # --out is required: "" names no file, and the write's error comes first.
    from levylink import sde_sim

    calls = []
    monkeypatch.setattr(sde_sim, "simulate", lambda *a: calls.append(a))
    argv = ["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS[:-1], ""]
    error = "error: [Errno 2] No such file or directory: ''\n"
    assert run_in_process(argv, tmp_path) == (1, "", error)
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_simulate_with_an_empty_svg_writes_no_plot(tmp_path):
    argv = ["simulate", "--alpha", "1.5", "--lambda", "1", *SIM_FLAGS, "--svg", ""]
    assert run_in_process(argv, tmp_path) == (0, "", "")
    assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]


def test_sweep_reruns_into_its_existing_outdir(tmp_path):
    # The first run makes every missing level of --outdir.
    argv = [*SWEEP_FLAGS, "--alphas", "1.5", "--outdir", os.path.join("d", "e"), "--svg"]
    assert run_in_process(argv, tmp_path) == (0, "", "")
    first = {p.name: p.read_bytes() for p in (tmp_path / "d" / "e").iterdir()}
    assert run_in_process(argv, tmp_path) == (0, "", "")
    assert {p.name: p.read_bytes() for p in (tmp_path / "d" / "e").iterdir()} == first
    assert sorted(first) == ["ou_l1_m1_a1p5.csv", "ou_l1_m1_a1p5.svg"]


def test_rng_and_selfsim_load_only_the_modules_they_call(tmp_path):
    script = """
import sys
from levylink.cli import main
main(["rng", "--alpha", "1.5", "--n", "2", "--seed", "1", "--out", "x.txt"])
main(["selfsim", "--alpha", "1.5", "--c", "2", "--paths", "6", "--steps", "2", "--seed", "1"])
print(" ".join(sorted(m for m in sys.modules if m.startswith("levylink."))))
"""
    res = run_python(["-c", script], tmp_path)
    assert res.returncode == 0, res.stderr
    loaded = res.stdout.splitlines()[-1].split()
    assert "levylink.trajio" in loaded and "levylink.noise_stats" in loaded
    assert not {"levylink.link_fit", "levylink.multinterp", "levylink.sde_sim"} & set(loaded)
