"""The platform that pinned output bytes hold on: one numpy build and one SIMD target.

numpy dispatches its float64 ``sin``, ``cos``, ``tan``, ``log`` and
``power`` loops to the widest SIMD target the CPU offers.  The AVX-512
(``X86_V4``) loops round some results differently from the AVX2 and
baseline ones, so the last bits of a stable draw depend on whether they are
live.  ``tests/test_golden.py`` keys its constants by this fingerprint, and
``tests/conftest.py`` prints it in the report header.
"""
import platform

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__


def fingerprint():
    """(numpy version, machine, whether numpy's AVX-512 ``X86_V4`` loops are live)."""
    return np.__version__, platform.machine(), bool(__cpu_features__.get("X86_V4"))
