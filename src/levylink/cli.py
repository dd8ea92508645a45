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
from collections import Counter

from .link_fit import fit_link
from .noise_stats import self_similarity_check
from .sde_sim import GridSpec, ModelKind, ModelSpec, simulate
from .stable_rng import StableParams, sample_n
from .streams import RngStream
from .svgplot import render_paths_svg
from .trajio import (
    atomic_write_text,
    format_real,
    mangle_value,
    read_link_rows_csv,
    write_trajectories_csv,
)

__all__ = ["main"]


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

    sim = sub.add_parser("simulate", help="simulate sample paths and write CSV/SVG")
    sim.add_argument("--model", choices=[k.value for k in ModelKind], required=True)
    sim.add_argument("--alpha", type=float, required=True)
    sim.add_argument("--lambda", dest="lam", type=float, required=True)
    sim.add_argument("--mu", type=float, required=True)
    sim.add_argument("--x0", type=float, default=1.0)
    sim.add_argument("--t-end", type=float, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--paths", type=int, default=1)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--no-jumps", action="store_true", help="suppress the GLM jump stream")
    sim.add_argument("--out", required=True, help="trajectory CSV path")
    sim.add_argument("--svg", default=None, help="optional SVG plot path")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="simulate one file per (lambda, mu, alpha) combination")
    sweep.add_argument("--model", choices=[k.value for k in ModelKind], required=True)
    sweep.add_argument("--alphas", type=_float_list, required=True)
    sweep.add_argument("--lambdas", type=_float_list, required=True)
    sweep.add_argument("--mus", type=_float_list, required=True)
    sweep.add_argument("--x0", type=float, default=1.0)
    sweep.add_argument("--t-end", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--paths", type=int, default=1)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--outdir", required=True)
    sweep.add_argument("--svg", action="store_true", help="also write an SVG per combination")
    sweep.set_defaults(func=cmd_sweep)

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


def _path_plan(args, triples):
    """Check ``--paths``; build one model per (lam, mu, alpha), the grid and the base stream."""
    if args.paths < 1:
        raise ValueError(f"paths={args.paths} must be a positive integer")
    kind, jumps = ModelKind(args.model), not getattr(args, "no_jumps", False)
    models = [
        ModelSpec(kind=kind, lam=lam, mu=mu, alpha=alpha, x0=args.x0, with_jumps=jumps)
        for lam, mu, alpha in triples
    ]
    return models, GridSpec(t_end=args.t_end, n_steps=args.steps), RngStream(args.seed)


def _write_paths(args, model, grid, base, first_stream_id, csv_path, svg_path):
    """Simulate ``args.paths`` paths on ``base`` substreams from ``first_stream_id``; write them."""
    trajectories = [
        simulate(model, grid, base.substream(first_stream_id + p)) for p in range(args.paths)
    ]
    write_trajectories_csv(csv_path, trajectories)
    if svg_path:
        atomic_write_text(svg_path, render_paths_svg([(t.times, t.values) for t in trajectories]))


def cmd_simulate(args) -> int:
    (model,), grid, base = _path_plan(args, [(args.lam, args.mu, args.alpha)])
    _write_paths(args, model, grid, base, 0, args.out, args.svg)
    return 0


def cmd_sweep(args) -> int:
    combos = list(itertools.product(args.lambdas, args.mus, args.alphas))
    stems = [
        f"{args.model}_l{mangle_value(lam)}_m{mangle_value(mu)}_a{mangle_value(alpha)}"
        for lam, mu, alpha in combos
    ]
    clashes = sorted(stem for stem, count in Counter(stems).items() if count > 1)
    if clashes:
        raise ValueError(f"sweep combinations share output file names: {', '.join(clashes)}")
    # Every combination is checked before anything is written: all or nothing.
    models, grid, base = _path_plan(args, combos)
    os.makedirs(args.outdir, exist_ok=True)
    for combo, (model, stem) in enumerate(zip(models, stems)):
        path = os.path.join(args.outdir, stem)
        svg_path = path + ".svg" if args.svg else None
        _write_paths(args, model, grid, base, combo * args.paths, path + ".csv", svg_path)
    return 0


def cmd_fit_link(args) -> int:
    link = fit_link(read_link_rows_csv(args.input))
    report = {
        "beta": [format_real(b) for b in link.coefficients],
        "t_bar": format_real(link.t_bar),
        "x_bar": format_real(link.x_bar),
        "rhs": format_real(link.rhs),
        "equation": link.equation_text(),
    }
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        atomic_write_text(args.out, text)
    return 0


def cmd_rng(args) -> int:
    params = StableParams(alpha=args.alpha, beta=args.beta, gamma=args.gamma, delta=args.delta)
    draws = sample_n(params, RngStream(args.seed), args.n)
    text = ("%.17g\n" * draws.size) % tuple(draws.tolist())
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_selfsim(args) -> int:
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
