import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpflow.grids import gauss_lobatto_rule, lagrange_diff_matrix


def test_rejects_degree_zero():
    with pytest.raises(ValueError):
        gauss_lobatto_rule(0)


def test_trapezoid_k1():
    nodes, weights = gauss_lobatto_rule(1)  # the general formula, exactly
    assert np.array_equal(nodes, [-1.0, 1.0])
    assert np.array_equal(weights, [1.0, 1.0])


def test_simpson_k2():
    nodes, weights = gauss_lobatto_rule(2)
    assert np.allclose(nodes, [-1.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_k3_closed_form():
    # interior nodes +-1/sqrt(5), weights 1/6, 5/6, 5/6, 1/6
    nodes, weights = gauss_lobatto_rule(3)
    assert np.allclose(nodes, [-1.0, -1.0 / np.sqrt(5), 1.0 / np.sqrt(5), 1.0],
                       atol=1e-14)
    assert np.allclose(weights, [1.0 / 6, 5.0 / 6, 5.0 / 6, 1.0 / 6], atol=1e-14)


@pytest.mark.parametrize("k", range(1, 11))
def test_structure(k):
    nodes, weights = gauss_lobatto_rule(k)
    assert len(nodes) == k + 1
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    # symmetry and total measure
    assert np.allclose(nodes, -nodes[::-1], atol=1e-13)
    assert np.allclose(weights, weights[::-1], atol=1e-13)
    assert abs(weights.sum() - 2.0) < 1e-13


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_exact_for_degree_2k_minus_1(k, data):
    """The (k+1)-point rule integrates polynomials of degree <= 2k-1 exactly."""
    deg = data.draw(st.integers(0, 2 * k - 1))
    coeffs = np.array([data.draw(st.floats(-10, 10)) for _ in range(deg + 1)])
    nodes, weights = gauss_lobatto_rule(k)
    quad = float(weights @ np.polyval(coeffs, nodes))
    # exact integral of sum c_i x^(deg-i) over [-1, 1]
    exact = sum(c * ((1.0 - (-1.0) ** (p + 1)) / (p + 1))
                for c, p in zip(coeffs, range(deg, -1, -1)))
    assert abs(quad - exact) < 1e-11 * max(1.0, np.abs(coeffs).sum())


@pytest.mark.parametrize("k", range(2, 9))
def test_not_exact_beyond_2k_minus_1(k):
    # x^(2k) integrates to 2/(2k+1); Gauss-Lobatto has a known defect
    nodes, weights = gauss_lobatto_rule(k)
    quad = float(weights @ nodes ** (2 * k))
    assert abs(quad - 2.0 / (2 * k + 1)) > 1e-6


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_diff_matrix_differentiates_polynomials(k, data):
    deg = data.draw(st.integers(0, k))
    coeffs = np.array([data.draw(st.floats(-5, 5)) for _ in range(deg + 1)])
    nodes, _ = gauss_lobatto_rule(k)
    D = lagrange_diff_matrix(nodes)
    got = D @ np.polyval(coeffs, nodes)
    want = np.polyval(np.polyder(coeffs) if deg > 0 else [0.0], nodes)
    assert np.allclose(got, want, atol=1e-10 * max(1.0, np.abs(coeffs).sum()))


def test_diff_matrix_rows_sum_to_zero():
    for k in range(1, 9):
        nodes, _ = gauss_lobatto_rule(k)
        D = lagrange_diff_matrix(nodes)
        assert np.allclose(D.sum(axis=1), 0.0, atol=1e-12)
