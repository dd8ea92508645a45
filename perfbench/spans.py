"""Span tracing of levylink's layers, applied from outside the package.

``Tracer.install`` replaces each layer's public functions with a timing
wrapper at every ``levylink`` module binding that holds them (a name brought
in with ``from .x import y`` is a separate binding that must be patched too),
and wraps the ``RngStream`` methods on the class.  Spans stay in memory as
``[name, parent, start, end, attrs]`` lists until ``write`` saves them, and
``layer_metrics`` folds them into the per-layer metrics of BENCHMARK.json.

Per-value helpers (``format_real``, ``mangle_value``, ``sample``,
``increment``, ``validate`` and the CMS kernels) are not wrapped: they run
once per value or per call of a wrapped function, so their time counts as
self time of the caller and wrapping them would cost more than they do.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time

LAYERS = (
    "streams", "stable_rng", "noise_stats", "sde_sim", "link_fit",
    "multinterp", "trajio", "svgplot", "cli",
)
BRANCHES = ("gaussian", "cauchy", "levy", "symmetric", "skewed", "unit_index")
_UNWRAPPED = {
    "stable_rng": {"sample", "validate", "cauchy_kernel", "symmetric_kernel",
                   "skewed_kernel", "unit_index_kernel"},
    "noise_stats": {"increment"},
    "trajio": {"format_real", "mangle_value"},
}
_STREAM_METHODS = ("__init__", "uniforms", "normals")


def branch_of(params) -> str:
    """Generator branch ``sample_n`` takes for ``params`` (dispatch order)."""
    a, b = params.alpha, params.beta
    if a == 2.0:
        return "gaussian"
    if a == 1.0 and b == 0.0:
        return "cauchy"
    if a == 0.5 and abs(b) == 1.0:
        return "levy"
    if b == 0.0:
        return "symmetric"
    return "skewed" if a != 1.0 else "unit_index"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts recorded on a span, from the call's arguments and result.
_ATTRS = {
    "streams.uniforms": lambda a, k, r: {"n": len(r)},
    "streams.normals": lambda a, k, r: {"n": len(r)},
    "stable_rng.sample_n": lambda a, k, r: {
        "n": len(r), "branch": branch_of(_arg(a, k, 0, "params"))},
    "sde_sim.simulate": lambda a, k, r: {"steps": len(r.values) - 1},
    "link_fit.collect_rows": lambda a, k, r: {
        "rows": len(r.rows), "triples": len(r.rows) + len(r.excluded)},
    "trajio.trajectories_to_csv": lambda a, k, r: {
        "rows": sum(len(t.times) for t in _arg(a, k, 0, "trajectories"))},
    "trajio.atomic_write_text": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text"))},
    "trajio.read_trajectories_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "trajio.read_link_rows_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "svgplot.render_paths_svg": lambda a, k, r: {"bytes": len(r)},
}


class Tracer:
    """In-memory span recorder; one per traced phase, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every levylink binding of every wrapped function.

        Spans are recorded only while ``active`` is set.
        """
        layer_modules = [importlib.import_module(f"levylink.{layer}") for layer in LAYERS]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "levylink" or n.startswith("levylink.")]
        for layer, mod in zip(LAYERS, layer_modules):
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if (attr in _UNWRAPPED.get(layer, ()) or not callable(fn)
                        or isinstance(fn, type) or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, key, value))
                            setattr(holder, key, wrapped)
        stream_cls = importlib.import_module("levylink.streams").RngStream
        for meth in _STREAM_METHODS:
            fn = stream_cls.__dict__[meth]
            self._patched.append((stream_cls, meth, fn))
            setattr(stream_cls, meth, self._wrap(f"streams.{meth.strip('_')}", fn))

    def uninstall(self) -> None:
        self.active = False
        for holder, key, value in reversed(self._patched):
            setattr(holder, key, value)
        self._patched.clear()

    def write(self, path) -> None:
        """Save spans as gzipped CSV: index,name,parent,start_s,end_s,attrs."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,parent,start_s,end_s,attrs\n")
            for i, (name, parent, t0, t1, attrs) in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in attrs.items()) if attrs else ""
                fh.write(f"{i},{name},{parent},{t0:.9f},{t1:.9f},{extra}\n")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if ".ns_per" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(spans: list[list], import_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced phase's spans.

    ``self`` time is a span's duration minus its direct children's;
    ``layer`` time is a span's duration minus the children that belong to
    another layer, so nested calls within one layer are not counted twice.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    layer = [s[0].split(".", 1)[0] for s in spans]
    child_sum = [0.0] * n
    foreign = [0.0] * n
    # Children are recorded after their parent, so a reverse sweep sees
    # every child's totals complete before adding them to the parent.
    for i in range(n - 1, -1, -1):
        p = spans[i][1]
        if p >= 0:
            child_sum[p] += dur[i]
            foreign[p] += dur[i] if layer[p] != layer[i] else foreign[i]

    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    layer_self = {name: 0.0 for name in LAYERS}
    branch_s = {b: 0.0 for b in BRANCHES}
    branch_n = {b: 0 for b in BRANCHES}
    for i, (name, parent, _, _, attrs) in enumerate(spans):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child_sum[i]
        if parent < 0 or layer[parent] != layer[i]:
            layer_self[layer[i]] += dur[i] - foreign[i]
        if attrs:
            for key, value in attrs.items():
                if key != "branch":
                    sums[f"{name}:{key}"] = sums.get(f"{name}:{key}", 0) + value
            if name == "stable_rng.sample_n":
                branch_s[attrs["branch"]] += dur[i] - foreign[i]
                branch_n[attrs["branch"]] += attrs["n"]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    c = lambda name: count.get(name, 0)  # noqa: E731
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    q = lambda key: sums.get(key, 0)  # noqa: E731
    steps = q("sde_sim.simulate:steps")
    csv_rows = q("trajio.trajectories_to_csv:rows")
    out = {
        "streams.new_count": c("streams.init"),
        "streams.new_s": t("streams.init"),
        "streams.draws": q("streams.uniforms:n") + q("streams.normals:n"),
        "stable_rng.calls": c("stable_rng.sample_n"),
        "stable_rng.variates": q("stable_rng.sample_n:n"),
        "stable_rng.self_s": layer_self["stable_rng"],
    }
    for b in BRANCHES:
        out[f"stable_rng.ns_per_variate.{b}"] = ratio(branch_s[b], branch_n[b], 1e9)
    out.update({
        "noise_stats.increments_self_s": s("noise_stats.increments"),
        "noise_stats.ks_s": t("noise_stats.empirical_ks_two_sample")
        + t("noise_stats.empirical_ks_one_sample"),
        "noise_stats.selfsim_self_s": s("noise_stats.self_similarity_check"),
        "sde_sim.paths": c("sde_sim.simulate"),
        "sde_sim.steps": steps,
        "sde_sim.self_s": layer_self["sde_sim"],
        "sde_sim.ns_per_step": ratio(layer_self["sde_sim"], steps, 1e9),
        "link_fit.collect_self_s": s("link_fit.collect_rows"),
        "link_fit.detect_s": t("link_fit.detect_first_jump"),
        "link_fit.fit_link_self_s": s("link_fit.fit_link"),
        "link_fit.jump_ratio": ratio(q("link_fit.collect_rows:rows"),
                                     q("link_fit.collect_rows:triples")),
        "link_fit.fit_ratio": ratio(c("link_fit.fit_link"), c("link_fit.collect_rows")),
        "multinterp.fit_s": t("multinterp.fit"),
        "multinterp.fits": c("multinterp.fit"),
        "trajio.to_csv_s": t("trajio.trajectories_to_csv"),
        "trajio.write_s": t("trajio.atomic_write_text"),
        "trajio.read_s": t("trajio.read_trajectories_csv") + t("trajio.read_link_rows_csv"),
        "trajio.bytes_written": q("trajio.atomic_write_text:bytes"),
        "trajio.bytes_read": q("trajio.read_trajectories_csv:bytes")
        + q("trajio.read_link_rows_csv:bytes"),
        "trajio.ns_per_row": ratio(t("trajio.trajectories_to_csv"), csv_rows, 1e9),
        "svgplot.render_s": t("svgplot.render_paths_svg"),
        "svgplot.bytes": q("svgplot.render_paths_svg:bytes"),
        "cli.import_s": import_s,
        "cli.main_self_s": s("cli.main"),
        "cli.commands": c("cli.main"),
    })
    return out
