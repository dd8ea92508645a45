"""Simulation and analysis tools for SDEs driven by alpha-stable noise.

Subpackages cover stable variate generation, noise increment statistics,
explicit Euler simulation of two jump models, multivariate polynomial
interpolation on sample nodes, and a linear fit tying first-jump data to
model parameters.  The package level holds the names of the paper's
pipeline; everything else is imported from its own module.

Package names and submodules load on first access (PEP 562), so
``import levylink`` and ``levylink --help`` do not import numpy.
"""
from importlib import import_module as _import_module

__version__ = "1.0.0"

# Package-level name -> the submodule that defines it.
_HOMES = {
    "GridSpec": "sde_sim",
    "ModelKind": "sde_sim",
    "ModelSpec": "sde_sim",
    "RngStream": "streams",
    "SampleRow": "link_fit",
    "StableParams": "stable_rng",
    "Trajectory": "sde_sim",
    "collect_rows": "link_fit",
    "detect_first_jump": "link_fit",
    "fit_link": "link_fit",
    "sample_n": "stable_rng",
    "self_similarity_check": "noise_stats",
    "simulate": "sde_sim",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    # Not cached in globals(): each access returns the module's current binding.
    home = _HOMES.get(name)
    if home is not None:
        return getattr(_import_module(f".{home}", __name__), name)
    if not name.startswith("_"):
        try:
            return _import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES})
