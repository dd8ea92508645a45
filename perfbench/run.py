"""levylink benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload link_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; levylink is imported from ``src``.
``--trace 0`` measures the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs each of a fixed set of operations untraced and traced, and reports the
per-layer metrics and the tracing overhead.  The last stdout line is the
JSON result; the lines before it give the environment, the output digest
and a readable table.  The exit code is 1 when any output check failed.
Scratch files go under ``.bench_tmp/`` and span files under ``.bench_out/``
in the checkout.
"""
import os

# One process, one thread: keep BLAS from starting worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBES = 8
PROBE_TIMEOUT_S = 60


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def timed_children(argvs, workdir, env) -> tuple[list[float], list[str], list[str]]:
    """Run each argv to completion; return wall times, stdouts and errors."""
    walls, outs, errors = [], [], []
    for argv in argvs:
        t0 = time.perf_counter()
        res = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        outs.append(res.stdout)
        if res.returncode != 0:
            errors.append(f"{' '.join(argv[1:3])} exited {res.returncode}: {res.stderr.strip()[-300:]}")
    return walls, outs, errors


class Phase:
    """Operation times, work counts, failures and digest of one measuring pass."""

    def __init__(self):
        self.times: list[float] = []
        self.busy_s = 0.0
        self.paths = 0
        self.variates = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()


def run_op(w, j, phase, tracer=None) -> None:
    """Prepare, time, check and record operation ``j`` into ``phase``."""
    w.prepare(j)
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = w.run(j)
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if isinstance(result, Exception):
        errors, digest = [f"op {j}: {result!r}"], None
    else:
        try:
            errors, digest = w.settle(j, result)
        except Exception as exc:
            errors, digest = [f"op {j}: check raised {exc!r}"], None
    if j < w.digest_ops:
        phase.digest.update(digest or b"failed")
    paths, variates = w.work(j)
    phase.times.append(dt)
    phase.busy_s += dt
    phase.paths += paths
    phase.variates += variates
    phase.failed += bool(errors)
    phase.errors += errors


def measure(w, seconds, idle, idle_count) -> Phase:
    """Run operations for ``seconds`` of operation time, and at least ``w.digest_ops``.

    ``idle`` is called ``idle_count`` times, spread evenly over the run.
    """
    phase = Phase()
    idle_done = 0
    j = 0
    while j < w.capacity and (j < w.digest_ops or phase.busy_s < seconds):
        if idle_done < idle_count and phase.busy_s >= seconds * idle_done / idle_count:
            idle()
            idle_done += 1
        run_op(w, j, phase)
        j += 1
    finish = w.finish()
    phase.failed += bool(finish)
    phase.errors += finish
    return phase


def measure_traced(w, n_ops, tracer) -> tuple[Phase, Phase]:
    """Run each of ``n_ops`` operations untraced and traced, alternating which goes first.

    Interleaving the two keeps slow drift in machine speed out of the
    tracing overhead.
    """
    plain, traced = Phase(), Phase()
    for j in range(min(n_ops, w.capacity)):
        order = ((plain, None), (traced, tracer))
        for phase, t in order if j % 2 == 0 else reversed(order):
            run_op(w, j, phase, t)
    finish = w.finish()
    traced.failed += bool(finish)
    traced.errors += finish
    return plain, traced


def percentile(values, q) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def probe_argvs(args, workdir, count):
    return [[sys.executable, str(BENCH / "probe.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", workdir] + (["--tiny"] if args.tiny else [])
            ] * count


def untraced(args, make, workdir, env):
    probes = 1 if args.tiny else PROBES
    setup_argv = probe_argvs(args, workdir, 1)
    help_argv = [[sys.executable, "-m", "levylink", "--help"]]
    setup, startup, errors = [], [], []

    def probe():
        """One set-up probe and one start-up probe, interleaved with the operations."""
        walls, _, errs = timed_children(setup_argv, workdir, env)
        setup.extend(walls)
        errors.extend(errs)
        walls, outs, errs = timed_children(help_argv, workdir, env)
        startup.extend(walls)
        errors.extend(errs + [f"--help printed {o[:40]!r}" for o in outs
                              if not o.startswith("usage: levylink")])

    w = make(in_process=False)
    w.warm_up()
    phase = measure(w, seconds=args.seconds, idle=probe, idle_count=probes)
    phase.failed += bool(errors)
    phase.errors = errors + phase.errors
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_files" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "startup_s": (statistics.median(startup), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "op_p50_ms": (percentile(phase.times, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(phase.times, 0.9) * 1e3, "ms"),
        "paths_per_s": (phase.paths / phase.busy_s, "1/s"),
        "variates_per_s": (phase.variates / phase.busy_s, "1/s"),
    }
    return phase, metrics


def traced(args, make, workdir, env):
    from spans import Tracer, layer_metrics, unit_of

    errors, import_s = [], 0.0
    if args.workload == "cli_files":
        _, outs, errors = timed_children(probe_argvs(args, workdir, 1 if args.tiny else 3),
                                         workdir, env)
        values = [json.loads(o)["import_s"] for o in outs if o.strip()]
        import_s = statistics.median(values) if values else 0.0
    w = make(in_process=True)
    w.warm_up()
    run_op(w, 0, Phase())  # a full in-process operation, so lazy set-up is paid before timing
    tracer = Tracer()
    tracer.install()
    try:
        reference, phase = measure_traced(w, w.trace_ops, tracer)
    finally:
        tracer.uninstall()
    if phase.digest.digest() != reference.digest.digest():
        errors.append("traced and untraced operations produced different output digests")
    overhead_pct = (statistics.median(t / r for t, r in zip(phase.times, reference.times)) - 1) * 100
    phase.failed += reference.failed + bool(errors)
    phase.errors = errors + reference.errors + phase.errors
    phase.times += reference.times
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    metrics = {name: (value, unit_of(name))
               for name, value in layer_metrics(tracer.spans, import_s).items()}
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return phase, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every operation and probe count (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "levylink" / "__init__.py").is_file():
        print(f"error: no levylink sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        def make(in_process):
            return WORKLOADS[args.workload](args.seed, args.tiny, workdir, in_process)

        run = traced if args.trace else untraced
        phase, metrics = run(args, make, workdir, child_env())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in phase.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print("# env " + json.dumps(environment()))
    print(f"# digest sha256={phase.digest.hexdigest()} workload={args.workload} "
          f"seed={args.seed} ops={len(phase.times)}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<40} {value:>16.6g} {unit}")
    result = {
        "correct": phase.failed == 0,
        "attempted": len(phase.times),
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if phase.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
