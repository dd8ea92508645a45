"""Acceptance gate: the eight shipping criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Every criterion asserts its stated tolerances and its runtime budget; the
statistical checks all use pinned seeds.
"""
import math
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from levylink.link_fit import SampleRow, detect_first_jump, fit_link
from levylink.multinterp import SingularSampleMatrix, cardinal, enumerate_exponents, evaluate, evaluate_cardinal, fit
from levylink.noise_stats import empirical_ks_two_sample, self_similarity_check
from levylink.sde_sim import GridSpec, ModelKind, ModelSpec, simulate
from levylink.stable_rng import StableParams, sample_n
from levylink.streams import RngStream

from ks_oracle import empirical_ks_one_sample
from scan_oracle import scan_for_first_jump

ROOT = Path(__file__).resolve().parent.parent

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


def report(number: int, label: str, failures: list, elapsed: float = None):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({elapsed * 1000:.1f} ms)" if elapsed is not None else ""
    print(f"criterion {number} {status}{suffix}: {label}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def solve_by_elimination(matrix, rhs):
    """Independent oracle: Gaussian elimination with partial pivoting.

    Pure-Python lists on purpose, sharing nothing with the package's
    linear algebra.
    """
    n = len(rhs)
    a = [list(map(float, row)) + [float(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            raise ZeroDivisionError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n + 1):
                a[r][c] -= f * a[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return x


def oracle_link(rows):
    # Columns ordered (1, lam, mu, alpha, t) to match the fit's basis.
    matrix = [[1.0, r.lam, r.mu, r.alpha, r.t] for r in rows]
    b5, b1, b2, b3, b4 = solve_by_elimination(matrix, [r.x for r in rows])
    t_bar = sum(r.t for r in rows) / 5.0
    x_bar = sum(r.x for r in rows) / 5.0
    return (b1, b2, b3, b4, b5), t_bar, x_bar, x_bar - b5 - b4 * t_bar


def timed_best_of_three(fn):
    fn()
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_ou_link_reproduction():
    oracle_beta, _, _, oracle_rhs = oracle_link(OU_ROWS)
    link = fit_link(OU_ROWS)
    failures = []
    reference = (0.00034, 0.18, -0.52, 5.76, 0.54)
    for i, (got, ora, ref) in enumerate(zip(link.coefficients, oracle_beta, reference)):
        if abs(got - ora) > 1e-9 * max(1.0, abs(ora)):
            failures.append(f"beta{i + 1} {got} disagrees with elimination oracle {ora}")
        if abs(got - ref) > 0.05 * abs(ref):
            failures.append(f"beta{i + 1} {got} outside 5% of reference {ref}")
    if abs(link.rhs - 3.24) > 0.01:
        failures.append(f"rhs {link.rhs} outside 3.24 +- 0.01")
    if abs(oracle_rhs - link.rhs) > 1e-9:
        failures.append(f"rhs {link.rhs} disagrees with oracle {oracle_rhs}")
    elapsed = timed_best_of_three(lambda: fit_link(OU_ROWS))
    if elapsed >= 1e-3:
        failures.append(f"fit took {elapsed * 1000:.3f} ms, budget 1 ms")
    report(1, "OU table link fit matches elimination oracle and reference", failures, elapsed)


def test_criterion_2_glm_link_reproduction():
    oracle_beta, _, _, _ = oracle_link(GLM_ROWS)
    link = fit_link(GLM_ROWS)
    failures = []
    reference = (-0.0017124, -0.066287, 0.15752, 68.508, 0.74723)
    for i, (got, ora, ref) in enumerate(zip(link.coefficients, oracle_beta, reference)):
        if abs(got - ora) > 1e-9 * max(1.0, abs(ora)):
            failures.append(f"beta{i + 1} {got} disagrees with elimination oracle {ora}")
        if abs(got - ref) > 0.005 * abs(ref):
            failures.append(f"beta{i + 1} {got} outside 0.5% of reference {ref}")
    if abs(link.rhs - (-0.3949911)) > 1e-3:
        failures.append(f"rhs {link.rhs} outside -0.3949911 +- 1e-3")
    b1, b2, b3, b4, b5 = link.coefficients
    if abs(link.rhs - (link.x_bar - b5 - b4 * link.t_bar)) > 1e-12:
        failures.append("rhs identity broken beyond 1e-12")
    elapsed = timed_best_of_three(lambda: fit_link(GLM_ROWS))
    if elapsed >= 1e-3:
        failures.append(f"fit took {elapsed * 1000:.3f} ms, budget 1 ms")
    report(2, "GLM table link fit matches elimination oracle and reference", failures, elapsed)


def test_criterion_3_stable_rng_distributional_suite():
    t0 = time.perf_counter()
    failures = []

    draws = sample_n(StableParams(alpha=1.0, beta=0.0), RngStream(101), 10_000)
    r = empirical_ks_one_sample(draws, lambda x: 0.5 + np.arctan(x) / np.pi, significance=0.01)
    if not r.passed:
        failures.append(f"Cauchy KS stat {r.statistic:.5f} >= {r.critical_value:.5f}")

    draws = sample_n(StableParams(alpha=0.5, beta=1.0), RngStream(103), 10_000)

    def chi2_cdf(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = np.array([math.erf(math.sqrt(v / 2.0)) for v in y[pos]])
        return out

    r = empirical_ks_one_sample(1.0 / draws, chi2_cdf, significance=0.01)
    if not r.passed:
        failures.append(f"Levy-transform KS stat {r.statistic:.5f} >= {r.critical_value:.5f}")

    gauss = sample_n(StableParams(alpha=2.0), RngStream(105), 100_000)
    var = float(gauss.var(ddof=1))
    if not 1.94 <= var <= 2.06:
        failures.append(f"gaussian variance {var:.4f} outside [1.94, 2.06]")

    for alpha in (0.6, 1.0, 1.3, 1.7, 2.0):
        stream = RngStream(310)
        x1 = sample_n(StableParams(alpha=alpha), stream, 10_000)
        x2 = sample_n(StableParams(alpha=alpha), stream, 10_000)
        fresh = sample_n(StableParams(alpha=alpha), stream, 10_000)
        r = empirical_ks_two_sample((x1 + x2) * 2.0 ** (-1.0 / alpha), fresh, significance=0.01)
        if not r.passed:
            failures.append(f"convolution KS failed at alpha={alpha}: {r.statistic:.5f}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"suite took {elapsed:.2f} s, budget 5 s")
    report(3, "stable generator distributional suite at 1%", failures, elapsed)


def test_criterion_4_self_similarity():
    t0 = time.perf_counter()
    failures = []
    cases = [(2.0, 4.0, 1.0, 401), (1.5, 8.0, 0.5, 402), (0.8, 2.0, 1.0, 403)]
    for alpha, c, t, seed in cases:
        r = self_similarity_check(alpha, c, t, 10_000, 256, RngStream(seed), significance=0.01)
        if not r.passed:
            failures.append(
                f"(alpha={alpha}, c={c}) stat {r.statistic:.5f} >= {r.critical_value:.5f}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"checks took {elapsed:.2f} s, budget 10 s")
    report(4, "self-similarity KS checks at 1% for three (alpha, c) pairs", failures, elapsed)


def test_criterion_5_degenerate_limit_oracles():
    t0 = time.perf_counter()
    failures = []

    grid = GridSpec(t_end=1.0, n_steps=2**14)
    ou = simulate(ModelSpec(kind=ModelKind.OU, lam=1.0, mu=0.0, alpha=1.5, x0=1.0),
                  grid, RngStream(1))
    if abs(ou.values[-1] - math.exp(-1.0)) > 1e-3:
        failures.append(f"noise-free OU endpoint {ou.values[-1]} vs {math.exp(-1.0)}")
    glm = simulate(ModelSpec(kind=ModelKind.GLM, lam=0.5, mu=0.0, alpha=1.5, x0=2.0),
                   grid, RngStream(2))
    want = 2.0 * math.exp(0.5)
    if abs(glm.values[-1] - want) / want > 2e-3:
        failures.append(f"noise-free GLM endpoint {glm.values[-1]} vs {want}")

    for kind, exact in ((ModelKind.OU, math.exp(-1.0)), (ModelKind.GLM, math.exp(1.0))):
        def endpoint_error(n_steps):
            g = GridSpec(t_end=1.0, n_steps=n_steps)
            m = ModelSpec(kind=kind, lam=1.0, mu=0.0, alpha=1.5, x0=1.0)
            return abs(simulate(m, g, RngStream(3)).values[-1] - exact)

        ratio = endpoint_error(1024) / endpoint_error(2048)
        if not 1.8 <= ratio <= 2.2:
            failures.append(f"{kind.value} halving ratio {ratio:.3f} outside [1.8, 2.2]")

    model = ModelSpec(kind=ModelKind.GLM, lam=0.1, mu=0.2, alpha=2.0, x0=1.0, with_jumps=False)
    grid = GridSpec(t_end=1.0, n_steps=256)
    ends = np.array([simulate(model, grid, RngStream(711, p)).values[-1] for p in range(10_000)])
    target = math.exp(0.1)
    se = float(ends.std(ddof=1)) / math.sqrt(ends.size)
    if abs(float(ends.mean()) - target) > 3.0 * se:
        failures.append(f"Brownian-only mean {ends.mean():.5f} beyond 3 SE of {target:.5f}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"checks took {elapsed:.2f} s, budget 10 s")
    report(5, "degenerate-limit oracles and Monte Carlo mean", failures, elapsed)


def test_criterion_6_interpolation_properties():
    t0 = time.perf_counter()
    failures = []

    for n in range(6):
        for m in range(1, 6):
            if len(enumerate_exponents(n, m)) != math.comb(n + m, n):
                failures.append(f"count identity broken at n={n}, m={m}")

    rng = np.random.default_rng(96)
    nodes = rng.uniform(-1, 1, size=(6, 2))
    interp = fit(nodes, rng.normal(size=6), 2, 2)
    for i in range(6):
        for j in range(6):
            want = 1.0 if i == j else 0.0
            if abs(cardinal(interp, i, nodes[j]) - want) > 1e-8:
                failures.append(f"cardinal delta broken at ({i}, {j})")

    done = 0
    while done < 50:
        n = int(rng.integers(0, 3))
        m = int(rng.integers(1, 4))
        exps = enumerate_exponents(n, m)
        coeffs = rng.uniform(-3, 3, size=len(exps))

        def poly(pt):
            return float(sum(c * np.prod(np.asarray(pt) ** np.asarray(e))
                             for c, e in zip(coeffs, exps)))

        pts = rng.uniform(-2, 2, size=(len(exps), m))
        try:
            it = fit(pts, [poly(p) for p in pts], n, m)
        except SingularSampleMatrix:
            continue
        if np.linalg.cond(it.matrix) >= 1e6:
            continue
        for pt in rng.uniform(-2, 2, size=(100, m)):
            want = poly(pt)
            if abs(evaluate(it, pt) - want) > 1e-6 * (1.0 + abs(want)):
                failures.append(f"exactness broken on trial {done}")
                break
        else:
            if np.linalg.cond(it.matrix) < 1e8:
                for pt in rng.uniform(-2, 2, size=(10, m)):
                    a, b = evaluate(it, pt), evaluate_cardinal(it, pt)
                    if abs(a - b) > 1e-6 * (1.0 + abs(a)):
                        failures.append(f"route disagreement on trial {done}")
                        break
        done += 1

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"suite took {elapsed:.2f} s, budget 5 s")
    report(6, "interpolation count/cardinal/exactness/route properties", failures, elapsed)


def test_criterion_7_jump_pipeline_properties():
    t0 = time.perf_counter()
    failures = []

    grid = GridSpec(t_end=1.0, n_steps=128)
    jumps = 0
    for i in range(100):
        kind = ModelKind.OU if i % 2 == 0 else ModelKind.GLM
        alpha = (0.75, 1.0, 1.3, 1.6, 1.9)[i % 5]
        mu = (0.5, 1.0, 2.0)[i % 3]
        traj = simulate(ModelSpec(kind=kind, lam=1.0, mu=mu, alpha=alpha, x0=1.0),
                        grid, RngStream(900, i))
        got = detect_first_jump(traj, 10.0)
        want = scan_for_first_jump(traj, 10.0)
        if got != want:
            failures.append(f"path {i}: detector {got} vs scan oracle {want}")
        jumps += got is not None
    if jumps < 10:
        failures.append(f"only {jumps} of 100 pinned paths jumped; mix too degenerate")

    def g(lam, mu, alpha, t):
        return -2.5 * lam + 0.75 * mu + 11.0 * alpha - 6.0 * t + 1.5

    rows = [
        SampleRow(lam=lam, mu=mu, alpha=alpha, t=t, x=g(lam, mu, alpha, t))
        for lam, mu, alpha, t in [
            (0.5, 1.0, 0.9, 0.03),
            (4.0, 0.1, 1.6, 0.12),
            (2.5, 2.2, 0.4, 0.07),
            (9.0, 1.3, 1.2, 0.01),
            (1.5, 3.1, 1.8, 0.20),
        ]
    ]
    link = fit_link(rows)
    for got, want in zip(link.coefficients, (-2.5, 0.75, 11.0, -6.0, 1.5)):
        if abs(got - want) > 1e-8 * abs(want):
            failures.append(f"planted coefficient {want} recovered as {got}")

    elapsed = time.perf_counter() - t0
    report(7, "jump detector equals scan oracle; planted link recovered to 1e-8", failures, elapsed)


def test_criterion_8_documented_commands_reproducible(tmp_path):
    t0 = time.perf_counter()
    failures = []

    readme = (ROOT / "README.md").read_text()
    commands = []
    in_fence = False
    for line in readme.splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence and line.strip().startswith("levylink "):
            commands.append(line.strip())
    if len(commands) < 5:
        failures.append(f"README documents only {len(commands)} commands")
    used = {shlex.split(c)[1] for c in commands}
    for sub in ("simulate", "sweep", "fit-link", "rng", "selfsim"):
        if sub not in used:
            failures.append(f"README never documents `levylink {sub}`")

    link_csv = (
        "lambda,mu,alpha,t,x\n"
        "1,0.25,1,0.06055,0.4198\n"
        "1,1,1.75,0.003906,-0.1551\n"
        "1,100,0.75,0.03125,18.82\n"
        "10,0.25,0.5,0.02148,0.4561\n"
        "1000,0.25,1.75,0.001952,0.0374\n"
    )

    def run_all(run_dir):
        run_dir.mkdir()
        (run_dir / "link_rows.csv").write_text(link_csv)
        transcript = []
        for command in commands:
            argv = [sys.executable, "-m", "levylink"] + shlex.split(command)[1:]
            res = subprocess.run(argv, cwd=run_dir, capture_output=True, timeout=300)
            transcript.append((command, res.returncode, res.stdout))
            if res.returncode != 0:
                failures.append(f"{command!r} exited {res.returncode}: {res.stderr[:200]}")
        tree = {}
        for p in sorted(run_dir.rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(run_dir))] = p.read_bytes()
        return transcript, tree

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    if first[0] != second[0]:
        failures.append("stdout transcript differs between the two runs")
    if set(first[1]) != set(second[1]):
        failures.append("the two runs produced different file sets")
    else:
        for name, blob in first[1].items():
            if second[1][name] != blob:
                failures.append(f"{name} differs between runs")

    elapsed = time.perf_counter() - t0
    report(8, "README-documented commands are byte-reproducible", failures, elapsed)
