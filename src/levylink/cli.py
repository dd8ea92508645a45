"""Command-line interface: simulate, sweep, fit-link, rng, selfsim.

Every failure path exits nonzero after printing a single line prefixed with
``error:`` to stderr.  Exit codes: 0 success, 1 validation or I/O error,
2 statistical fail (selfsim only).  All commands are deterministic given
the same flags and seed.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

# Only stdlib at module level: each command imports the levylink modules it
# uses, so --help and usage errors never load numpy.

__all__ = ["main"]

# The values of sde_sim.ModelKind, spelled out so the parser needs no numpy.
_MODEL_CHOICES = ("ou", "glm")


class _Parser(argparse.ArgumentParser):
    # Single-line machine-parsable failures instead of argparse's usage dump.
    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _float_list(text: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a nonempty comma-separated list of reals")
    return [float(s) for s in items]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levylink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # The run flags of simulate and sweep, which both feed sde_sim._plan.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--model", choices=_MODEL_CHOICES, required=True)
    run.add_argument("--x0", type=float, default=1.0)
    run.add_argument("--t-end", type=float, required=True)
    run.add_argument("--steps", type=int, required=True)
    run.add_argument("--paths", type=int, default=1)
    run.add_argument("--seed", type=int, required=True)

    sim = sub.add_parser("simulate", parents=[run], help="simulate sample paths and write CSV/SVG")
    sim.add_argument("--alpha", type=float, required=True)
    sim.add_argument("--lambda", dest="lam", type=float, required=True)
    sim.add_argument("--mu", type=float, required=True)
    sim.add_argument("--no-jumps", action="store_true", help="suppress the GLM jump stream")
    sim.add_argument("--out", required=True, help="trajectory CSV path")
    sim.add_argument("--svg", default=None, help="optional SVG plot path")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser(
        "sweep", parents=[run], help="simulate one file per (lambda, mu, alpha) combination"
    )
    sweep.add_argument("--alphas", type=_float_list, required=True)
    sweep.add_argument("--lambdas", type=_float_list, required=True)
    sweep.add_argument("--mus", type=_float_list, required=True)
    sweep.add_argument("--outdir", required=True)
    sweep.add_argument("--svg", action="store_true", help="also write an SVG per combination")
    sweep.set_defaults(func=cmd_sweep, no_jumps=False)

    fit = sub.add_parser("fit-link", help="fit the linear link from a 5-row CSV")
    fit.add_argument("--input", required=True, help="CSV with header lambda,mu,alpha,t,x")
    fit.add_argument("--out", default=None, help="optional JSON report path")
    fit.set_defaults(func=cmd_fit_link)

    rng = sub.add_parser("rng", help="print stable variates, one per line")
    rng.add_argument("--alpha", type=float, required=True)
    rng.add_argument("--beta", type=float, default=0.0)
    rng.add_argument("--gamma", type=float, default=1.0)
    rng.add_argument("--delta", type=float, default=0.0)
    rng.add_argument("--n", type=int, required=True)
    rng.add_argument("--seed", type=int, required=True)
    rng.add_argument("--out", default=None, help="optional output file (default stdout)")
    rng.set_defaults(func=cmd_rng)

    selfsim = sub.add_parser("selfsim", help="KS self-similarity check of the driving noise")
    selfsim.add_argument("--alpha", type=float, required=True)
    selfsim.add_argument("--c", type=float, required=True)
    selfsim.add_argument("--t", type=float, default=1.0)
    selfsim.add_argument("--paths", type=int, default=10000)
    selfsim.add_argument("--steps", type=int, default=256)
    selfsim.add_argument("--seed", type=int, required=True)
    selfsim.add_argument("--significance", type=float, default=0.01, choices=[0.05, 0.01])
    selfsim.set_defaults(func=cmd_selfsim)

    return parser


def _write_combinations(args, combos, outputs, outdir):
    """Simulate each (lam, mu, alpha) of ``combos`` by the ``sde_sim._plan`` and write it.

    ``outputs`` pairs each combination with its CSV path and SVG path or None.
    The seed and every input are checked, in that order, then the outputs
    are refused by ``trajio._refuse_paths`` (which makes ``outdir`` unless
    None) before a path is simulated; ``simulate`` is combination 0 of a sweep.
    """
    from .sde_sim import GridSpec, _plan
    from .streams import RngStream
    from .svgplot import render_paths_svg
    from .trajio import _refuse_paths, atomic_write_text, trajectories_to_csv

    stream = RngStream(args.seed)  # a bad seed is reported before any other input
    grid = GridSpec(t_end=args.t_end, n_steps=args.steps)
    plan = _plan(combos, args.model, grid, stream, args.paths, args.x0, not args.no_jumps)
    paths = list(itertools.chain.from_iterable(outputs))
    names = "--svg {} and --out {}" if outdir is None else "--outdir files {} and {}"
    _refuse_paths(paths, names, outdir)
    for trajectories, (csv_path, svg_path) in zip(plan, outputs):
        atomic_write_text(csv_path, trajectories_to_csv(trajectories))
        if svg_path:
            curves = [(t.times, t.values) for t in trajectories]
            atomic_write_text(svg_path, render_paths_svg(curves))


def cmd_simulate(args) -> int:
    outputs = [(args.out, args.svg or None)]  # --svg "" plots nothing; --out "" is refused
    _write_combinations(args, [(args.lam, args.mu, args.alpha)], outputs, None)
    return 0


def cmd_sweep(args) -> int:
    from .trajio import mangle_value

    combos = list(itertools.product(args.lambdas, args.mus, args.alphas))
    stems = ["{}_l{}_m{}_a{}".format(args.model, *map(mangle_value, combo)) for combo in combos]
    paths = [os.path.join(args.outdir, stem) for stem in stems]
    outputs = [(path + ".csv", path + ".svg" if args.svg else None) for path in paths]
    _write_combinations(args, combos, outputs, args.outdir)
    return 0


def cmd_fit_link(args) -> int:
    from .link_fit import fit_link
    from .trajio import _refuse_paths, atomic_write_text, format_real, read_link_rows_csv

    _refuse_paths([args.input, args.out or None], "--out {} and --input {}")
    link = fit_link(read_link_rows_csv(args.input))
    report = {
        "beta": [format_real(b) for b in link.coefficients],
        "t_bar": format_real(link.t_bar),
        "x_bar": format_real(link.x_bar),
        "rhs": format_real(link.rhs),
        "equation": link.equation_text(),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_rng(args) -> int:
    from .stable_rng import StableParams, sample_n
    from .streams import RngStream
    from .trajio import _refuse_paths, atomic_write_text

    stream = RngStream(args.seed)  # a bad seed is reported before bad parameters
    params = StableParams(alpha=args.alpha, beta=args.beta, gamma=args.gamma, delta=args.delta)
    _refuse_paths([args.out or None])  # --out "" prints
    draws = sample_n(params, stream, args.n)
    text = ("%.17g\n" * draws.size) % tuple(draws.tolist())
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_selfsim(args) -> int:
    from .noise_stats import self_similarity_check
    from .streams import RngStream
    from .trajio import format_real

    report = self_similarity_check(
        alpha=args.alpha,
        c=args.c,
        t=args.t,
        n_paths=args.paths,
        n_steps=args.steps,
        stream=RngStream(args.seed),
        significance=args.significance,
    )
    sys.stdout.write(
        f"statistic={format_real(report.statistic)}\n"
        f"critical_value={format_real(report.critical_value)}\n"
        f"significance={report.significance:g}\n"
        f"passed={'true' if report.passed else 'false'}\n"
    )
    return 0 if report.passed else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
