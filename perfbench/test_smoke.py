"""Smoke test of the benchmark: each workload at a tiny size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd, "perfbench", "run.py")), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_and_digest(workload, trace):
    res = run_bench(workload, trace)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("# digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metric_names_and_digests(workload):
    plain, plain_digest = result_and_digest(workload, 0)
    traced, traced_digest = result_and_digest(workload, 1)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain_digest == traced_digest


def test_refuses_to_run_without_sources():
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_tmp")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        res = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert res.returncode != 0 and res.stdout == ""
    finally:
        shutil.rmtree(bare)
