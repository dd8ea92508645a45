"""Fresh-interpreter set-up probe for one workload.

Imports levylink (its CLI module for ``cli_files``), builds the workload's
inputs from the seed and warms it up, then prints {"import_s": ...} on
stdout.  ``run.py`` times whole probe processes for ``setup_s``.

    python3 perfbench/probe.py --workload link_pipeline --seed 1 --workdir DIR [--tiny]
"""
import argparse
import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--workdir", required=True)
parser.add_argument("--tiny", action="store_true")
args = parser.parse_args()

t0 = time.perf_counter()
sys.path.insert(0, str(SRC))
importlib.import_module("levylink.cli" if args.workload == "cli_files" else "levylink")
import_s = time.perf_counter() - t0

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[args.workload](args.seed, args.tiny, args.workdir, in_process=True).warm_up()
print(json.dumps({"import_s": import_s}))
