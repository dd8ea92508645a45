"""The three levylink workloads: inputs, operations, output checks, digests.

A workload is a sequence of operations j = 0, 1, 2, ... whose inputs come
from the benchmark seed alone; levylink only ever sees the generated values.
The runner calls, per operation, ``prepare(j)`` (untimed), ``run(j)``
(timed) and ``settle(j, result)`` (untimed), which checks the output and,
for the first ``digest_ops`` operations, returns the bytes that go into the
workload's output digest.  ``finish()`` runs the checks that need every
operation, such as the KS pass rate.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_TIMEOUT_S = 60


def fmt(v: float) -> str:
    return f"{v:.17g}"


def fmt_lines(values) -> str:
    return "\n".join(map("{:.17g}".format, values)) + "\n"


def hash_lines(values: np.ndarray, chunk: int = 1 << 16) -> bytes:
    """sha256 of ``fmt_lines(values)``, formatted a chunk at a time to bound memory."""
    h = hashlib.sha256()
    for i in range(0, len(values), chunk):
        h.update(fmt_lines(values[i:i + chunk].tolist()).encode())
    return h.digest()


def child_env() -> dict[str, str]:
    """Environment for ``python -m levylink`` children: an absolute ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def scan_first_jump(times, values, factor):
    """Pure-Python first-jump scan, the oracle for ``detect_first_jump``."""
    diffs = [abs(float(values[k + 1]) - float(values[k])) for k in range(len(values) - 1)]
    finite = sorted(d for d in diffs if math.isfinite(d))
    if finite:
        mid = len(finite) // 2
        med = finite[mid] if len(finite) % 2 else 0.5 * (finite[mid - 1] + finite[mid])
    else:
        med = 0.0
    threshold = factor * med if med > 0.0 else 0.0
    for k, d in enumerate(diffs):
        if d > threshold:
            return float(times[k + 1]), float(values[k + 1])
    return None


def ks_failure_limit(trials: int, significance: float, tail: float = 1e-6) -> int:
    """Largest KS failure count whose binomial upper tail is not below ``tail``."""
    pmf = [math.comb(trials, k) * significance**k * (1 - significance) ** (trials - k)
           for k in range(trials + 1)]
    upper = 0.0
    for k in range(trials, -1, -1):
        upper += pmf[k]
        if upper >= tail:
            return k
    return trials


def link_row_errors(link, rows) -> list[str]:
    """Each fitted link must reproduce its five rows within 1e-8 relative error."""
    b1, b2, b3, b4, b5 = link.coefficients
    errors = []
    for r in rows:
        terms = (b1 * r.lam, b2 * r.mu, b3 * r.alpha, b4 * r.t, b5)
        scale = max(abs(r.x), sum(abs(v) for v in terms))
        if not abs(sum(terms) - r.x) <= 1e-8 * scale:
            errors.append(f"fit misses row {r} by {abs(sum(terms) - r.x):.3g}")
    return errors


class Workload:
    name = ""
    digest_ops = 1
    trace_ops = 1
    capacity = 1

    def warm_up(self) -> None:
        self.prepare(0)
        self.run(0)

    def prepare(self, j: int) -> None:
        pass

    def run(self, j: int):
        raise NotImplementedError

    def settle(self, j: int, result) -> tuple[list[str], bytes | None]:
        raise NotImplementedError

    def work(self, j: int) -> tuple[int, int]:
        """(sample paths, random variates) operation ``j`` generates."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over every operation since the last call."""
        return []


class LinkPipeline(Workload):
    """Groups of five (lambda, mu, alpha) triples: collect_rows, then fit_link."""

    name = "link_pipeline"
    digest_ops = 64
    trace_ops = 1000
    capacity = 50_000
    group = 5
    threshold = 10.0
    oracle_every = 16

    def __init__(self, seed: int, tiny: bool, workdir: str, in_process: bool):
        from levylink import link_fit, sde_sim, streams

        self.link_fit, self.sde_sim, self.streams = link_fit, sde_sim, streams
        if tiny:
            self.capacity, self.trace_ops, self.digest_ops = 200, 20, 8
        rng = np.random.default_rng([seed, 1])
        low, high = np.array([0.5, 0.25, 0.6]), np.array([10.0, 2.0, 1.9])
        self.triples = rng.uniform(low, high, size=(self.capacity, self.group, 3))
        self.stream_seed = int(rng.integers(0, 2**31))
        self.grid = sde_sim.GridSpec(t_end=1.0, n_steps=64 if tiny else 1024)

    def kind(self, j):
        return self.sde_sim.ModelKind.OU if j % 2 == 0 else self.sde_sim.ModelKind.GLM

    def run(self, j):
        triples = [tuple(t) for t in self.triples[j].tolist()]
        stream = self.streams.RngStream(self.stream_seed, self.group * j)
        collected = self.link_fit.collect_rows(triples, self.kind(j), self.grid, self.threshold, stream)
        # A group with an excluded triple has fewer than five rows: no fit.
        link = self.link_fit.fit_link(collected.rows) if len(collected.rows) == self.group else None
        return collected, link

    def settle(self, j, result):
        collected, link = result
        triples = [tuple(t) for t in self.triples[j].tolist()]
        errors = []
        got = [(r.lam, r.mu, r.alpha) for r in collected.rows] + list(collected.excluded)
        if sorted(got) != sorted(triples) or len(got) != self.group:
            errors.append(f"group {j}: rows and exclusions do not cover the triples")
        for r in collected.rows:
            if not (0.0 < r.t <= self.grid.t_end and math.isfinite(r.x)):
                errors.append(f"group {j}: row {r} outside the grid")
        if link is not None:
            errors += [f"group {j}: {e}" for e in link_row_errors(link, collected.rows)]
        if j % self.oracle_every == 0:
            errors += self._oracle_errors(j, triples, collected)
        digest = None
        if j < self.digest_ops:
            values = [v for r in collected.rows for v in (r.lam, r.mu, r.alpha, r.t, r.x)]
            values += [v for t in collected.excluded for v in t]
            if link is not None:
                values += [*link.coefficients, link.t_bar, link.x_bar, link.rhs]
            digest = fmt_lines(values).encode()
        return errors, digest

    def _oracle_errors(self, j, triples, collected):
        rows = {(r.lam, r.mu, r.alpha): (r.t, r.x) for r in collected.rows}
        errors = []
        for i, (lam, mu, alpha) in enumerate(triples):
            model = self.sde_sim.ModelSpec(kind=self.kind(j), lam=lam, mu=mu, alpha=alpha, x0=1.0)
            traj = self.sde_sim.simulate(
                model, self.grid, self.streams.RngStream(self.stream_seed, self.group * j + i))
            want = scan_first_jump(traj.times, traj.values, self.threshold)
            got = self.link_fit.detect_first_jump(traj, self.threshold)
            if got != want:
                errors.append(f"group {j} path {i}: detector {got} vs scan oracle {want}")
            elif rows.get((lam, mu, alpha)) != (want if want and math.isfinite(want[1]) else None):
                errors.append(f"group {j} path {i}: row {rows.get((lam, mu, alpha))} vs scan {want}")
        return errors

    def work(self, j):
        draws_per_step = 1 if j % 2 == 0 else 2  # GLM draws normals and jumps
        return self.group, self.group * self.grid.n_steps * draws_per_step


class NoiseBulk(Workload):
    """Large-n draws cycling through all six generator branches."""

    name = "noise_bulk"
    # One cycle: sample_n on each branch, then self_similarity_check on the
    # three branches a symmetric stable law can take.
    cycle = ("gaussian", "cauchy", "levy", "symmetric", "skewed", "unit_index",
             "selfsim_gaussian", "selfsim_cauchy", "selfsim_symmetric")
    digest_ops = len(cycle)
    trace_ops = 4 * len(cycle)
    capacity = 20_000
    significance = 0.01

    def __init__(self, seed: int, tiny: bool, workdir: str, in_process: bool):
        from levylink import noise_stats, stable_rng, streams

        self.noise_stats, self.stable_rng, self.streams = noise_stats, stable_rng, streams
        self.paths, self.steps = (256, 8) if tiny else (4096, 32)
        if tiny:
            self.capacity, self.trace_ops = 200, len(self.cycle)
        self.n = 2 * self.paths * self.steps  # every operation draws this many
        rng = np.random.default_rng([seed, 2])
        self.alpha = rng.uniform(0.6, 1.9, self.capacity)
        self.beta = rng.uniform(-1.0, 1.0, self.capacity)
        self.gamma = rng.uniform(0.5, 2.0, self.capacity)
        self.delta = rng.uniform(-1.0, 1.0, self.capacity)
        self.c = rng.uniform(2.0, 10.0, self.capacity)
        self.t = rng.uniform(0.5, 2.0, self.capacity)
        self.stream_seed = int(rng.integers(0, 2**31))
        self.ks_passed: dict[int, bool] = {}

    def _op(self, j):
        kind = self.cycle[j % len(self.cycle)]
        alpha, beta = float(self.alpha[j]), float(self.beta[j])
        if kind.endswith("gaussian"):
            alpha = 2.0
        elif kind.endswith("cauchy"):
            alpha, beta = 1.0, 0.0
        elif kind == "levy":
            alpha, beta = 0.5, math.copysign(1.0, beta)
        elif kind.endswith("symmetric"):
            beta = 0.0
        elif kind == "unit_index":
            alpha = 1.0
        return kind, alpha, beta

    def run(self, j):
        kind, alpha, beta = self._op(j)
        stream = self.streams.RngStream(self.stream_seed, j)
        if kind.startswith("selfsim"):
            return self.noise_stats.self_similarity_check(
                alpha, float(self.c[j]), float(self.t[j]), self.paths, self.steps, stream,
                significance=self.significance)
        params = self.stable_rng.StableParams(alpha, beta, float(self.gamma[j]), float(self.delta[j]))
        return self.stable_rng.sample_n(params, stream, self.n)

    def settle(self, j, result):
        kind, alpha, beta = self._op(j)
        errors = []
        if kind.startswith("selfsim"):
            stat, crit = result.statistic, result.critical_value
            if not (0.0 <= stat <= 1.0 and 0.0 < crit < 1.0 and result.passed == (stat < crit)):
                errors.append(f"op {j}: inconsistent KS report {result}")
            self.ks_passed[j] = result.passed
            digest = f"{fmt(stat)}\n{fmt(crit)}\n{result.passed}\n".encode()
        else:
            draws = np.asarray(result)
            if draws.shape != (self.n,) or draws.dtype != np.float64 or np.isnan(draws).any():
                errors.append(f"op {j}: {kind} draws have shape {draws.shape}, dtype "
                              f"{draws.dtype} or NaNs")
            elif beta == 0.0 or alpha == 2.0:
                # A symmetric law has median delta; allow more than 10 standard errors.
                gamma, delta = float(self.gamma[j]), float(self.delta[j])
                if abs(float(np.median(draws)) - delta) > 20 * gamma / math.sqrt(self.n):
                    errors.append(f"op {j}: {kind} median {np.median(draws)} is not delta={delta}")
            digest = hash_lines(draws) if j < self.digest_ops else None
        return errors, digest if j < self.digest_ops else None

    def work(self, j):
        selfsim = self.cycle[j % len(self.cycle)].startswith("selfsim")
        return (2 * self.paths if selfsim else 0), self.n

    def finish(self):
        trials, failures = len(self.ks_passed), list(self.ks_passed.values()).count(False)
        self.ks_passed.clear()
        limit = ks_failure_limit(trials, self.significance)
        if failures > limit:
            return [f"{failures} of {trials} KS checks failed at "
                    f"significance {self.significance}; at most {limit} expected"]
        return []


def _mangle(v: float) -> str:
    return f"{v:g}".replace(".", "p")


class CliFiles(Workload):
    """Passes over the README commands, scaled up, plus a CSV read-back.

    Each pass runs in its own temporary directory.  ``in_process`` runs the
    commands through ``levylink.cli.main`` instead of ``python -m levylink``
    children; traced runs use it, because spans live in this process.
    """

    name = "cli_files"
    digest_ops = 1
    trace_ops = 8
    capacity = 64

    def __init__(self, seed: int, tiny: bool, workdir: str, in_process: bool):
        from levylink import cli, trajio

        self.cli, self.trajio = cli, trajio
        self.workdir, self.in_process = workdir, in_process
        if tiny:
            self.capacity = 20
        self.sizes = dict(
            ou_steps=64, ou_paths=2, glm_steps=64, sweep_steps=64, sweep_paths=1,
            rng_n=1000, selfsim_paths=100, selfsim_steps=8,
        ) if tiny else dict(
            ou_steps=2048, ou_paths=8, glm_steps=4096, sweep_steps=2048, sweep_paths=4,
            rng_n=100_000, selfsim_paths=2000, selfsim_steps=64,
        )
        rng = np.random.default_rng([seed, 3])
        self.passes = [self._make_pass(rng) for _ in range(self.capacity)]
        self.dirs: dict[int, str] = {}
        self.env = child_env()

    def _make_pass(self, rng):
        s = self.sizes

        def u(lo, hi):
            return f"{rng.uniform(lo, hi):.4f}"

        # Sweep lists hold distinct values on a 0.01 grid, as a user would type them.
        alphas = ",".join(f"{a:.2f}" for a in rng.choice(np.arange(60, 191), 4, replace=False) / 100)
        lambdas = ",".join(f"{v:.1f}" for v in rng.choice(np.arange(5, 101), 2, replace=False) / 10)
        low, high = np.array([0.5, 0.25, 0.6, 0.0, -2.0]), np.array([10.0, 2.0, 1.9, 1.0, 2.0])
        rows = rng.uniform(low, high, size=(5, 5)).tolist()
        seeds = [str(v) for v in rng.integers(0, 2**31, 5)]
        commands = {
            "simulate_ou": [
                "simulate", "--model", "ou", "--alpha", u(0.6, 1.9), "--lambda", u(0.5, 10),
                "--mu", u(0.25, 2), "--t-end", "1.0", "--steps", str(s["ou_steps"]),
                "--paths", str(s["ou_paths"]), "--seed", seeds[0], "--out", "ou_paths.csv",
                "--svg", "ou_paths.svg"],
            "simulate_glm": [
                "simulate", "--model", "glm", "--alpha", u(0.6, 1.9), "--lambda", u(0.1, 1),
                "--mu", u(0.1, 0.5), "--x0", "2.0", "--t-end", "1.0",
                "--steps", str(s["glm_steps"]), "--seed", seeds[1], "--no-jumps",
                "--out", "glm_diffusion.csv"],
            "sweep": [
                "sweep", "--model", "ou", "--alphas", alphas, "--lambdas", lambdas,
                "--mus", u(0.25, 2), "--t-end", "1.0", "--steps", str(s["sweep_steps"]),
                "--paths", str(s["sweep_paths"]), "--seed", seeds[2], "--outdir", "sweep_out",
                "--svg"],
            "rng": [
                "rng", "--alpha", u(0.6, 1.9), "--beta", u(-1, 1), "--n", str(s["rng_n"]),
                "--seed", seeds[3], "--out", "draws.txt"],
            "fit_link": ["fit-link", "--input", "link_rows.csv", "--out", "link_report.json"],
            "selfsim": [
                "selfsim", "--alpha", u(0.6, 1.9), "--c", u(2, 10), "--t", "1.0",
                "--paths", str(s["selfsim_paths"]), "--steps", str(s["selfsim_steps"]),
                "--seed", seeds[4], "--significance", "0.05"],
        }
        return commands, rows

    @staticmethod
    def _flag(argv, name):
        return argv[argv.index(name) + 1]

    def warm_up(self):
        parser = self.cli.build_parser()
        for argv in self.passes[0][0].values():
            parser.parse_args(argv)

    def prepare(self, j):
        self.dirs[j] = d = tempfile.mkdtemp(prefix=f"pass{j}-", dir=self.workdir)
        lines = ["lambda,mu,alpha,t,x"] + [",".join(map(fmt, r)) for r in self.passes[j][1]]
        Path(d, "link_rows.csv").write_text("\n".join(lines) + "\n")

    def _call(self, argv, cwd):
        if not self.in_process:
            res = subprocess.run(
                [sys.executable, "-m", "levylink", *argv], cwd=cwd, env=self.env,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            return res.returncode, res.stdout, res.stderr
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(here)
        return code, out.getvalue(), err.getvalue()

    def run(self, j):
        d = self.dirs[j]
        calls = {name: self._call(argv, d) for name, argv in self.passes[j][0].items()}
        csvs = ["ou_paths.csv", "glm_diffusion.csv"] + sorted(
            os.path.join("sweep_out", f) for f in os.listdir(os.path.join(d, "sweep_out"))
            if f.endswith(".csv"))
        readback = {f: self.trajio.read_trajectories_csv(os.path.join(d, f)) for f in csvs}
        return calls, readback

    def settle(self, j, result):
        d = self.dirs.pop(j)
        try:
            errors = [f"pass {j}: {e}" for e in self._check(j, d, *result)]
            digest = self._digest(d, result[0]) if j < self.digest_ops else None
        finally:
            shutil.rmtree(d)
        return errors, digest

    def _digest(self, d, calls):
        h = hashlib.sha256()
        for root, dirs, files in os.walk(d):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(root, f)
                h.update(os.path.relpath(path, d).encode() + b"\0")
                h.update(Path(path).read_bytes())
        for name in ("fit_link", "selfsim"):
            h.update(calls[name][1].encode())
        return h.hexdigest().encode()

    def _check(self, j, d, calls, readback):
        from levylink import link_fit, noise_stats, sde_sim, stable_rng, streams, svgplot

        commands, rows = self.passes[j]
        errors = []
        allowed = {"selfsim": (0, 2)}
        for name, (code, _, stderr) in calls.items():
            if code not in allowed.get(name, (0,)) or stderr:
                errors.append(f"{name} exited {code} with stderr {stderr.strip()!r}")
        if errors:
            return errors

        def oracle(argv, stream_ids, lam, mu, alpha, with_jumps=True):
            model = sde_sim.ModelSpec(
                kind=sde_sim.ModelKind(self._flag(argv, "--model")), lam=lam, mu=mu,
                alpha=alpha, x0=float(self._flag(argv, "--x0")) if "--x0" in argv else 1.0,
                with_jumps=with_jumps)
            grid = sde_sim.GridSpec(float(self._flag(argv, "--t-end")), int(self._flag(argv, "--steps")))
            seed = int(self._flag(argv, "--seed"))
            return [sde_sim.simulate(model, grid, streams.RngStream(seed, i)) for i in stream_ids]

        def same_paths(name, trajs):
            got = readback.pop(name, None)
            if got is None or sorted(got) != list(range(len(trajs))):
                return [f"{name}: path ids {None if got is None else sorted(got)}"]
            return [f"{name}: path {p} does not read back to the simulated values"
                    for p, tr in enumerate(trajs)
                    if not (np.array_equal(got[p][0], tr.times)
                            and np.array_equal(got[p][1], tr.values, equal_nan=True))]

        def same_svg(path, trajs):
            want = svgplot.render_paths_svg([(t.times, t.values) for t in trajs])
            if Path(d, path).read_text() != want:
                return [f"{path}: SVG differs from the in-process rendering"]
            return []

        argv = commands["simulate_ou"]
        trajs = oracle(argv, range(int(self._flag(argv, "--paths"))), float(self._flag(argv, "--lambda")),
                       float(self._flag(argv, "--mu")), float(self._flag(argv, "--alpha")))
        errors += same_paths("ou_paths.csv", trajs) + same_svg("ou_paths.svg", trajs)

        argv = commands["simulate_glm"]
        trajs = oracle(argv, range(1), float(self._flag(argv, "--lambda")),
                       float(self._flag(argv, "--mu")), float(self._flag(argv, "--alpha")),
                       with_jumps=False)
        errors += same_paths("glm_diffusion.csv", trajs)

        argv = commands["sweep"]
        paths = int(self._flag(argv, "--paths"))
        want_files = set()
        combo = 0
        for lam in map(float, self._flag(argv, "--lambdas").split(",")):
            for mu in map(float, self._flag(argv, "--mus").split(",")):
                for alpha in map(float, self._flag(argv, "--alphas").split(",")):
                    stem = os.path.join("sweep_out", f"ou_l{_mangle(lam)}_m{_mangle(mu)}_a{_mangle(alpha)}")
                    trajs = oracle(argv, range(combo * paths, (combo + 1) * paths), lam, mu, alpha)
                    errors += same_paths(stem + ".csv", trajs) + same_svg(stem + ".svg", trajs)
                    want_files |= {stem + ".csv", stem + ".svg"}
                    combo += 1
        have = {os.path.join("sweep_out", f) for f in os.listdir(os.path.join(d, "sweep_out"))}
        if have != want_files:
            errors.append(f"sweep wrote {sorted(have ^ want_files)} unexpectedly or not at all")
        errors += [f"{name}: unexpected trajectory CSV" for name in readback]

        argv = commands["rng"]
        params = stable_rng.StableParams(alpha=float(self._flag(argv, "--alpha")),
                                         beta=float(self._flag(argv, "--beta")))
        draws = stable_rng.sample_n(params, streams.RngStream(int(self._flag(argv, "--seed"))),
                                    int(self._flag(argv, "--n")))
        if Path(d, "draws.txt").read_text() != fmt_lines(draws.tolist()):
            errors.append("rng output differs from in-process sample_n")

        _, stdout, _ = calls["fit_link"]
        sample_rows = [link_fit.SampleRow(*r) for r in rows]
        link = link_fit.fit_link(sample_rows)
        want = {"beta": [fmt(b) for b in link.coefficients], "t_bar": fmt(link.t_bar),
                "x_bar": fmt(link.x_bar), "rhs": fmt(link.rhs), "equation": link.equation_text()}
        if json.loads(stdout) != want or Path(d, "link_report.json").read_text() != stdout:
            errors.append("fit-link report differs from in-process fit_link")
        errors += link_row_errors(link, sample_rows)

        argv = commands["selfsim"]
        code, stdout, _ = calls["selfsim"]
        report = noise_stats.self_similarity_check(
            alpha=float(self._flag(argv, "--alpha")), c=float(self._flag(argv, "--c")),
            t=float(self._flag(argv, "--t")), n_paths=int(self._flag(argv, "--paths")),
            n_steps=int(self._flag(argv, "--steps")),
            stream=streams.RngStream(int(self._flag(argv, "--seed"))),
            significance=float(self._flag(argv, "--significance")))
        want_text = (f"statistic={fmt(report.statistic)}\ncritical_value={fmt(report.critical_value)}\n"
                     f"significance={report.significance:g}\n"
                     f"passed={'true' if report.passed else 'false'}\n")
        if stdout != want_text or code != (0 if report.passed else 2):
            errors.append(f"selfsim printed {stdout!r} with exit {code}, expected {want_text!r}")
        return errors

    def work(self, j):
        s = self.sizes
        sweep = self.passes[j][0]["sweep"]
        combos = len(self._flag(sweep, "--alphas").split(",")) * len(
            self._flag(sweep, "--lambdas").split(","))
        paths = s["ou_paths"] + 1 + combos * s["sweep_paths"] + 2 * s["selfsim_paths"]
        variates = (s["ou_paths"] * s["ou_steps"] + s["glm_steps"]
                    + combos * s["sweep_paths"] * s["sweep_steps"] + s["rng_n"]
                    + 2 * s["selfsim_paths"] * s["selfsim_steps"])
        return paths, variates


WORKLOADS = {w.name: w for w in (LinkPipeline, NoiseBulk, CliFiles)}
