"""Multivariate polynomial interpolation on a sample matrix of monomials.

A degree-n polynomial in m variables has rho = C(n+m, n) monomials.  Given
rho nodes, the sample matrix M holds node i's monomials in row i.  Two
evaluation routes are kept deliberately:

* coefficient solve: solve M a = f once, evaluate as a dot product with the
  monomial row of the query point (the production path);
* determinant ratio: cardinal function i at X is det(M with row i replaced
  by the monomial row of X) divided by det(M), and the interpolant is the
  cardinal-weighted sum of the node values.

The second route is kept as an independent construction; it agrees with the
first wherever the system is reasonably conditioned.

Monomials are ordered graded-lexicographically: grade ascending, and within
a grade the earlier variables dominate, so for n=1 the constant comes first
followed by the variables in order.  0**0 is taken as 1 so constant
monomials evaluate correctly at the origin.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularSampleMatrix",
    "DimensionMismatch",
    "enumerate_exponents",
    "determinant",
    "Interpolant",
    "fit",
    "cardinal",
    "evaluate",
    "evaluate_cardinal",
]


class SingularSampleMatrix(ValueError):
    """The sample matrix is singular (or numerically unusable) at this node set."""


class DimensionMismatch(ValueError):
    """Node, exponent or value counts are inconsistent."""


def enumerate_exponents(n: int, m: int) -> list[tuple[int, ...]]:
    """All exponent vectors of m non-negative integers with sum <= n.

    Exactly C(n+m, n) vectors, in graded lexicographic order, as a fresh
    list on every call.
    """
    if n < 0:
        raise ValueError(f"degree n={n} must be non-negative")
    if m < 1:
        raise ValueError(f"variable count m={m} must be positive")
    # Ascending multisets of variable indices; their counts run in descending lex order.
    return [
        tuple(map(c.count, range(m)))
        for grade in range(n + 1)
        for c in itertools.combinations_with_replacement(range(m), grade)
    ]


def _monomials(points, exponents) -> np.ndarray:
    """Monomials of each point under the fixed ordering: entry (i, j) = points_i ** exponent_j."""
    points = np.asarray(points, dtype=float)
    exps = np.asarray(exponents, dtype=int)
    if points.ndim != 2 or exps.ndim != 2 or points.shape[1] != exps.shape[1]:
        raise DimensionMismatch(
            f"points of shape {points.shape} incompatible with exponents of shape {exps.shape}"
        )
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


def determinant(matrix) -> float:
    """Determinant by Gaussian elimination with partial pivoting.

    The elimination runs on Python floats: the pivot is the first entry of
    largest magnitude (the first NaN, if any, as ``np.argmax`` picks), and
    each update is one multiply and one subtract, so a duplicated row
    cancels to an exact 0.0.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"determinant needs a square matrix, got shape {a.shape}")
    rows = a.tolist()
    det = 1.0
    for k in range(len(rows)):
        column = [abs(row[k]) for row in rows[k:]]
        nans = [i for i, v in enumerate(column) if v != v]
        p = k + (nans[0] if nans else column.index(max(column)))
        pivot = rows[p][k]
        if pivot == 0.0:
            return 0.0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        det *= pivot
        # Column k below the pivot is never read again, so it is not updated.
        top = rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            f = row[k] / pivot
            row[k + 1 :] = [x - f * y for x, y in zip(row[k + 1 :], top)]
    return det


@dataclass(frozen=True)
class Interpolant:
    """Fitted interpolant: monomial basis, node values, solved coefficients.

    Built by :func:`fit`, which refuses a singular sample matrix.  ``matrix``
    is the sample matrix the fit solved against and ``det_m`` its cached
    determinant, reused by the cardinal-function route.
    """

    exponents: list[tuple[int, ...]]
    values: np.ndarray
    coefficients: np.ndarray
    matrix: np.ndarray
    det_m: float


def fit(nodes, values, n: int, m: int) -> Interpolant:
    """Interpolate ``values`` at ``nodes`` by a degree-``n`` polynomial in ``m`` variables.

    Requires exactly rho = C(n+m, n) nodes, all nodes and values finite.
    A non-finite sample matrix M or det M, or |det M| at most 1e-12 times
    the product of M's row max-norms, raises SingularSampleMatrix.
    Coefficients solve the square system M a = f, with one
    iterative-refinement pass; the residual must meet 1e-8 * (1 + max|f|).
    """
    rho = math.comb(n + m, n)
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    values = np.asarray(values, dtype=float).ravel()
    if nodes.shape != (rho, m):
        raise DimensionMismatch(
            f"degree {n} in {m} variables needs {rho} nodes of dimension {m}, "
            f"got shape {nodes.shape}"
        )
    if values.size != rho:
        raise DimensionMismatch(f"expected {rho} values, got {values.size}")
    for name, array in (("nodes", nodes), ("values", values)):
        if not np.isfinite(array).all():
            raise ValueError(f"fit needs finite {name}")

    exponents = enumerate_exponents(n, m)
    with np.errstate(all="ignore"):  # an overflowed monomial is a NaN or inf, refused here
        matrix = _monomials(nodes, exponents)
        det_m = determinant(matrix)
        norms = np.abs(matrix).max(axis=1)
        tol = 1e-12 * float(np.prod(norms))  # may overflow; the test below sums logs
        if not np.log(1e-12) + np.sum(np.log(norms)) < np.log(abs(det_m)) < np.inf:
            raise SingularSampleMatrix(
                f"sample matrix determinant {det_m:g} below tolerance {tol:g}; "
                "choose distinct, non-degenerate nodes"
            )
    try:
        coeff = np.linalg.solve(matrix, values)
        coeff += np.linalg.solve(matrix, values - matrix @ coeff)
    except np.linalg.LinAlgError as exc:
        raise SingularSampleMatrix(str(exc)) from exc
    residual = float(np.max(np.abs(matrix @ coeff - values)))
    bound = 1e-8 * (1.0 + float(np.max(np.abs(values))))
    if not residual <= bound:  # a NaN residual is refused too
        raise SingularSampleMatrix(
            f"solve residual {residual:g} exceeds {bound:g}; system too ill-conditioned"
        )
    return Interpolant(
        exponents=exponents,
        values=values,
        coefficients=coeff,
        matrix=matrix,
        det_m=det_m,
    )


def cardinal(interp: Interpolant, i: int, x) -> float:
    """Cardinal function of node ``i`` at point ``x`` via the determinant ratio.

    Equals 1 at node i and 0 at every other node: replacing row i by another
    node's monomial row duplicates that row, so the numerator determinant
    vanishes.
    """
    replaced = interp.matrix.copy()
    replaced[i] = _monomials([x], interp.exponents)[0]
    return determinant(replaced) / interp.det_m


def evaluate(interp: Interpolant, x) -> float:
    """Evaluate the interpolant at ``x`` from the solved coefficients."""
    return float(_monomials([x], interp.exponents)[0] @ interp.coefficients)


def evaluate_cardinal(interp: Interpolant, x) -> float:
    """Evaluate at ``x`` as the cardinal-weighted sum of node values."""
    weights = np.array([cardinal(interp, i, x) for i in range(len(interp.values))])
    return float(weights @ interp.values)
