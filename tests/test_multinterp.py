"""Multivariate polynomial interpolation: enumeration, matrices, both routes."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylink.multinterp import (
    DimensionMismatch,
    SingularSampleMatrix,
    cardinal,
    determinant,
    enumerate_exponents,
    evaluate,
    evaluate_cardinal,
    fit,
)


# ----------------------------------------------------------------- enumeration

def test_enumerate_degree_one_four_variables():
    got = enumerate_exponents(1, 4)
    assert got == [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]


def test_enumerate_degree_zero():
    assert enumerate_exponents(0, 3) == [(0, 0, 0)]


def test_enumerate_degree_two_two_variables():
    got = enumerate_exponents(2, 2)
    assert len(got) == 6
    assert sorted(sum(e) for e in got) == [0, 1, 1, 2, 2, 2]
    assert got[0] == (0, 0)
    # Within each grade the order is lexicographic from the highest first entry.
    assert got.index((1, 0)) < got.index((0, 1))
    assert got.index((2, 0)) < got.index((1, 1)) < got.index((0, 2))


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("m", range(1, 6))
def test_enumeration_count_identity(n, m):
    got = enumerate_exponents(n, m)
    assert len(got) == math.comb(n + m, n)
    assert len(set(got)) == len(got)
    assert all(sum(e) <= n and min(e) >= 0 for e in got)


def compositions(total, parts):
    # The recursive enumeration enumerate_exponents replaced, kept as the
    # reference order: descending-lex compositions of total into parts entries.
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def test_enumeration_matches_the_recursive_reference():
    for n in range(9):
        for m in range(1, 9):
            want = [e for grade in range(n + 1) for e in compositions(grade, m)]
            assert enumerate_exponents(n, m) == want, (n, m)


def test_enumerate_returns_a_fresh_list():
    first = enumerate_exponents(1, 2)
    first.append((9, 9))
    first[0] = (7, 7)
    assert enumerate_exponents(1, 2) == [(0, 0), (1, 0), (0, 1)]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_exponents(-1, 2)
    with pytest.raises(ValueError):
        enumerate_exponents(1, 0)


# --------------------------------------------------------------------- matrix

def test_vandermonde_rows():
    got = fit([[1.0], [2.0], [3.0]], [0.0, 0.0, 0.0], 2, 1).matrix
    assert np.array_equal(got, [[1, 1, 1], [1, 2, 4], [1, 3, 9]])


def test_zero_to_the_zero_is_one():
    assert np.array_equal(fit([[0.0]], [5.0], 0, 1).matrix, [[1.0]])
    # At the origin the monomial row is (1, 0, 0): only the constant term counts.
    interp = fit([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [7.0, 9.0, 10.0], 1, 2)
    assert np.array_equal(interp.matrix[0], [1.0, 0.0, 0.0])
    assert evaluate(interp, [0.0, 0.0]) == interp.coefficients[0] == 7.0


# ---------------------------------------------------------------- determinant

def test_determinant_identity():
    assert determinant(np.eye(3)) == 1.0


def test_determinant_repeated_row_is_zero():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    assert determinant(m) == 0.0


def test_determinant_of_a_subnormal_pivot_is_that_pivot():
    assert determinant([[5e-324]]) == 5e-324


def test_determinant_vandermonde_product():
    m = fit([[1.0], [2.0], [3.0]], [0.0, 0.0, 0.0], 2, 1).matrix
    assert determinant(m) == pytest.approx((2 - 1) * (3 - 1) * (3 - 2), rel=1e-14)


def test_determinant_against_numpy_oracle():
    rng = np.random.default_rng(90)
    for k in range(20):
        a = rng.normal(size=(5, 5)) * 10.0 ** rng.integers(-2, 3)
        want = float(np.linalg.det(a))
        assert determinant(a) == pytest.approx(want, rel=1e-9, abs=1e-12)


def numpy_slice_determinant(matrix):
    # The numpy row-slice elimination determinant() replaced, kept as the
    # bit-for-bit reference; errstate only silences its warnings.
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    det = 1.0
    with np.errstate(all="ignore"):
        for k in range(n):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if a[p, k] == 0.0:
                return 0.0
            if p != k:
                a[[k, p]] = a[[p, k]]
                det = -det
            det *= a[k, k]
            if k + 1 < n:
                factors = a[k + 1 :, k] / a[k, k]
                a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
    return float(det)


SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, math.nan, math.inf, -math.inf,
           5e-324, -5e-324, 2.2e-308, 1e300, -1e300]


@st.composite
def square_matrices(draw, entries):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return n, rows


@settings(max_examples=150, deadline=None)
@given(square_matrices(st.one_of(st.sampled_from(SPECIAL), st.floats())), st.data())
def test_determinant_matches_numpy_slice_reference(sized, data):
    n, rows = sized
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, n - 1))] = list(rows[data.draw(st.integers(0, n - 1))])
    if data.draw(st.booleans()):
        col = data.draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = 0.0
    assert determinant(rows).hex() == numpy_slice_determinant(rows).hex()


FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, 1e100]),
    st.floats(min_value=-1e100, max_value=1e100),
)


@settings(max_examples=60, deadline=None)
@given(square_matrices(FINITE), st.data())
def test_duplicated_row_or_zero_column_gives_exact_zero(sized, data):
    n, rows = sized
    if n > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j])
    else:
        col = data.draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = 0.0
    got = determinant(rows)
    assert got.hex() == "0x0.0p+0"
    assert got.hex() == numpy_slice_determinant(rows).hex()


def test_determinant_requires_square():
    with pytest.raises(DimensionMismatch):
        determinant(np.ones((2, 3)))


# ------------------------------------------------------------------------ fit

def test_fit_recovers_planted_affine_function():
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    values = [2 * x + 3 * y + 1 for x, y in nodes]
    interp = fit(nodes, values, 1, 2)
    for x, y in ((0.5, 0.25), (-2.0, 4.0), (10.0, -3.0)):
        assert evaluate(interp, [x, y]) == pytest.approx(2 * x + 3 * y + 1, abs=1e-8)


def test_fit_reproduces_values_at_nodes():
    rng = np.random.default_rng(91)
    nodes = rng.normal(size=(6, 2))
    values = rng.normal(size=6) * 50
    interp = fit(nodes, values, 2, 2)
    for node, f in zip(nodes, values):
        assert abs(evaluate(interp, node) - f) <= 1e-8 * (1.0 + abs(f))


def test_fit_exactness_on_random_quadratics():
    rng = np.random.default_rng(92)
    exps = enumerate_exponents(2, 2)
    for trial in range(10):
        coeffs = rng.uniform(-3, 3, size=len(exps))

        def poly(pt):
            return sum(c * pt[0] ** e[0] * pt[1] ** e[1] for c, e in zip(coeffs, exps))

        nodes = rng.uniform(-2, 2, size=(6, 2))
        interp = fit(nodes, [poly(p) for p in nodes], 2, 2)
        points = rng.uniform(-2, 2, size=(100, 2))
        for pt in points:
            want = poly(pt)
            assert abs(evaluate(interp, pt) - want) <= 1e-6 * (1.0 + abs(want))


def test_fit_rejects_wrong_node_count():
    # fit's own messages, not determinant's refusal of a non-square matrix.
    def refused(text):
        return pytest.raises(DimensionMismatch, match=f"^{re.escape(text)}$")

    with refused("degree 2 in 1 variables needs 3 nodes of dimension 1, got shape (2, 1)"):
        fit([[0.0], [1.0]], [0.0, 1.0], 2, 1)
    with refused("expected 3 values, got 2"):
        fit([[0.0], [1.0], [2.0]], [0.0, 1.0], 2, 1)
    # Three nodes, as degree 2 in one variable needs, but of dimension 2.
    with refused("degree 2 in 1 variables needs 3 nodes of dimension 1, got shape (3, 2)"):
        fit([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]], [0.0, 1.0, 2.0], 2, 1)
    # The link fit's degree 1 in 4 variables: 4 nodes, then 5 nodes of dimension 3.
    for shape in ((4, 4), (5, 3)):
        with refused(f"degree 1 in 4 variables needs 5 nodes of dimension 4, got shape {shape}"):
            fit(np.arange(shape[0] * shape[1], dtype=float).reshape(shape), np.zeros(5), 1, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["nodes", "values"])
def test_fit_refuses_non_finite_nodes_and_values(where, bad):
    # A NaN passes the residual bound (NaN > bound is False) and an infinite
    # node reads as a singular matrix; both are refused by name instead.
    nodes, values = [[0.0], [1.0]], [0.0, 1.0]
    if where == "nodes":
        nodes[1] = [bad]
    else:
        values[1] = bad
    with pytest.raises(ValueError, match=f"^fit needs finite {where}$") as info:
        fit(nodes, values, n=1, m=1)
    assert type(info.value) is ValueError


def test_fit_rejects_repeated_nodes():
    nodes = [[1.0, 1.0], [1.0, 1.0], [0.0, 2.0]]
    with pytest.raises(SingularSampleMatrix):
        fit(nodes, [1.0, 2.0, 3.0], 1, 2)


def test_fit_rejects_degenerate_node_configuration():
    # Collinear nodes make the affine system singular.
    nodes = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    with pytest.raises(SingularSampleMatrix):
        fit(nodes, [0.0, 1.0, 2.0], 1, 2)


def test_fit_accepts_a_determinant_ten_times_its_tolerance():
    # Rows (1, 0) and (1, 1e-11) have unit max-norm, so det 1e-11 > 1e-12.
    interp = fit([[0.0], [1e-11]], [0.0, 1e-11], n=1, m=1)
    assert interp.det_m == 1e-11
    assert interp.coefficients.tolist() == pytest.approx([0.0, 1.0], abs=1e-12)


def test_fit_refuses_a_determinant_at_its_tolerance():
    # Rows (1, 0) and (1, 1e-12): det 1e-12 equals 1e-12 times the unit row norms.
    with pytest.raises(SingularSampleMatrix, match=r"^sample matrix determinant 1e-12 below"):
        fit([[0.0], [1e-12]], [0.0, 1e-12], n=1, m=1)


# 1e200**2 overflows to inf and the determinant reads NaN, which passed both
# `abs(det) <= tol` and `residual > bound`; times 0**1 the monomial x**2 * y
# is NaN itself. A determinant of 1e400 overflows, and the cardinal route
# would divide by it. Row max-norms of 1e80 multiply to 1e320, past float64;
# that matrix has condition number 2e80 and is refused as singular, not with
# a RuntimeWarning from the product.
OVERFLOWING = {
    "monomial": ([[1e200], [1.0], [2.0]], 2, 1),
    "monomial_times_zero": ([[1e200, 0.0], *[[i, i % 3] for i in range(9)]], 3, 2),
    "determinant": ([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]], 1, 2),
    "norm_product": ([[1e80, 0, 0], [0, 1e80, 0], [0, 0, 1e80], [1e80, 1e80, 1e80]], 1, 3),
}


@pytest.mark.parametrize("case", list(OVERFLOWING))
def test_fit_refuses_an_overflowing_sample_matrix_without_a_warning(case):
    nodes, n, m = OVERFLOWING[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSampleMatrix, match=r"^sample matrix determinant .* below"):
            fit(nodes, np.arange(len(nodes), dtype=float), n=n, m=m)


def test_fit_accepts_a_well_scaled_matrix_whose_row_norm_product_overflows():
    # Row max-norms 1, 1e155 and 1e155 multiply to 1e310, but the rows scaled
    # to unit max-norm have determinant 1e-6, above 1e-12.
    nodes = [[0.0, 0.0], [1e155, 0.0], [1e155, 1e149]]
    interp = fit(nodes, [0.0, 1.0, 2.0], n=1, m=2)
    assert interp.det_m == pytest.approx(1e304)
    assert [evaluate_cardinal(interp, x) for x in nodes] == pytest.approx([0.0, 1.0, 2.0])


def test_fit_refuses_a_solve_whose_residual_exceeds_its_bound(monkeypatch):
    # Each solve is off by 1e-6, so the refined coefficients are too and the
    # residual reads 2e-6: above 1e-8 * (1 + max|f|) = 3e-8, below 3e-4.
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(SingularSampleMatrix, match=r"^solve residual 2e-06 exceeds 3e-08;"):
        fit([[0.0], [1.0]], [1.0, 2.0], n=1, m=1)


def test_fit_reports_a_solve_that_raises_as_singular(monkeypatch):
    # Well-spread nodes pass the determinant test, so only the solve refuses.
    def solve(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(SingularSampleMatrix, match="^Singular matrix$"):
        fit([[0.0], [1.0]], [1.0, 2.0], n=1, m=1)


def test_fit_refuses_a_solve_whose_residual_is_nan(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(len(b), np.nan))
    with pytest.raises(SingularSampleMatrix, match=r"^solve residual nan exceeds 3e-08;"):
        fit([[0.0], [1.0]], [1.0, 2.0], n=1, m=1)


# ------------------------------------------------------------------ cardinals

def test_cardinal_delta_property():
    rng = np.random.default_rng(93)
    nodes = rng.uniform(-1, 1, size=(6, 2))
    interp = fit(nodes, rng.normal(size=6), 2, 2)
    for i in range(6):
        for j in range(6):
            want = 1.0 if i == j else 0.0
            assert abs(cardinal(interp, i, nodes[j]) - want) < 1e-8


def test_cardinals_partition_unity():
    rng = np.random.default_rng(94)
    nodes = rng.uniform(-1, 1, size=(10, 3))
    interp = fit(nodes, rng.normal(size=10), 2, 3)
    for pt in rng.uniform(-1, 1, size=(20, 3)):
        total = sum(cardinal(interp, i, pt) for i in range(10))
        assert total == pytest.approx(1.0, abs=1e-8)


def test_single_node_constant_cardinal():
    interp = fit([[3.0]], [7.0], 0, 1)
    assert cardinal(interp, 0, [100.0]) == 1.0
    assert evaluate_cardinal(interp, [-5.0]) == 7.0


def test_cardinal_index_bounds():
    interp = fit([[0.0], [1.0]], [0.0, 1.0], 1, 1)
    with pytest.raises(IndexError):
        cardinal(interp, 2, [0.5])


@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]], 0.5],
                         ids=["short", "long", "nested", "scalar"])
@pytest.mark.parametrize("route", [evaluate, evaluate_cardinal, lambda f, x: cardinal(f, 0, x)],
                         ids=["evaluate", "evaluate_cardinal", "cardinal"])
def test_query_point_of_the_wrong_dimension_is_refused(route, point):
    interp = fit([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0], 1, 2)
    with pytest.raises(DimensionMismatch):
        route(interp, point)


# ----------------------------------------------------------- route equivalence

def test_coefficient_and_cardinal_routes_agree():
    rng = np.random.default_rng(95)
    for trial in range(5):
        nodes = rng.uniform(-2, 2, size=(10, 3))
        values = rng.normal(size=10) * 20
        interp = fit(nodes, values, 2, 3)
        if np.linalg.cond(interp.matrix) >= 1e8:
            continue
        for pt in rng.uniform(-2, 2, size=(25, 3)):
            a = evaluate(interp, pt)
            b = evaluate_cardinal(interp, pt)
            assert abs(a - b) <= 1e-6 * (1.0 + abs(a))
