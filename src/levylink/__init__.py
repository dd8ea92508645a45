"""Simulation and analysis tools for SDEs driven by alpha-stable noise.

Subpackages cover stable variate generation, noise increment statistics,
explicit Euler simulation of two jump models, multivariate polynomial
interpolation on sample nodes, and a linear fit tying first-jump data to
model parameters.  The package level holds the names of the paper's
pipeline; everything else is imported from its own module.
"""
from .link_fit import SampleRow, collect_rows, detect_first_jump, fit_link
from .noise_stats import self_similarity_check
from .sde_sim import GridSpec, ModelKind, ModelSpec, Trajectory, simulate
from .stable_rng import StableParams, sample_n
from .streams import RngStream

__version__ = "1.0.0"

__all__ = [
    "GridSpec",
    "ModelKind",
    "ModelSpec",
    "RngStream",
    "SampleRow",
    "StableParams",
    "Trajectory",
    "collect_rows",
    "detect_first_jump",
    "fit_link",
    "sample_n",
    "self_similarity_check",
    "simulate",
    "__version__",
]
