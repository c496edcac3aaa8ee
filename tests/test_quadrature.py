import numpy as np
import pytest
import sympy
from scipy.special import roots_jacobi

from gwgflow.quadrature import (
    MAX_ORDER,
    _gauss_jacobi_1_0,
    edge_quadrature,
    map_to_physical,
    triangle_quadrature,
)

_x, _y = sympy.symbols("x y")


@pytest.mark.parametrize("npts", range(1, (MAX_ORDER + 2) // 2 + 1))
def test_gauss_jacobi_rule_matches_scipy(npts):
    # the Golub-Welsch rule for the weight (1 - x) against SciPy's, for every
    # size a triangle rule up to MAX_ORDER takes
    x, w = _gauss_jacobi_1_0(npts)
    x_ref, w_ref = roots_jacobi(npts, 1.0, 0.0)
    assert np.abs(x - x_ref).max() <= 1e-14
    assert np.abs(w - w_ref).max() <= 1e-14


def _exact_triangle_monomial(a: int, b: int) -> float:
    """Symbolic integral of x^a y^b over the reference triangle."""
    inner = sympy.integrate(_x**a * _y**b, (_y, 0, 1 - _x))
    return float(sympy.integrate(inner, (_x, 0, 1)))


def test_triangle_constant_and_linear():
    r = triangle_quadrature(4)
    xy = r.points[:, 1:]
    assert r.weights.sum() == pytest.approx(0.5, abs=1e-15)
    assert (r.weights * xy[:, 0]).sum() == pytest.approx(1 / 6, abs=1e-15)


def test_triangle_x2y3_against_symbolic_oracle():
    # oracle gives 2! 3! / 7! = 1/420
    exact = _exact_triangle_monomial(2, 3)
    assert exact == pytest.approx(1 / 420, rel=1e-14)
    r = triangle_quadrature(6)
    xy = r.points[:, 1:]
    val = (r.weights * xy[:, 0] ** 2 * xy[:, 1] ** 3).sum()
    assert val == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 12, 20])
def test_triangle_exactness_at_declared_order(order):
    r = triangle_quadrature(order)
    xy = r.points[:, 1:]
    for a in range(order + 1):
        for b in range(order + 1 - a):
            val = (r.weights * xy[:, 0] ** a * xy[:, 1] ** b).sum()
            exact = _exact_triangle_monomial(a, b)
            assert val == pytest.approx(exact, rel=1e-12, abs=1e-15), (a, b)


def test_triangle_barycentric_points():
    r = triangle_quadrature(5)
    assert r.points.shape[1] == 3
    assert np.allclose(r.points.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(r.points > 0)


def test_edge_rule_basics():
    r = edge_quadrature(1)
    assert r.weights.sum() == pytest.approx(1.0, abs=1e-15)
    r2 = edge_quadrature(2)
    assert (r2.weights * r2.points**2).sum() == pytest.approx(1 / 3, abs=1e-15)


def test_edge_s5_with_three_points():
    r = edge_quadrature(5)
    assert r.npts == 3
    assert (r.weights * r.points**5).sum() == pytest.approx(1 / 6, abs=1e-15)


@pytest.mark.parametrize("order", [1, 4, 9, 15, 20])
def test_edge_exactness(order):
    r = edge_quadrature(order)
    for d in range(order + 1):
        assert (r.weights * r.points**d).sum() == pytest.approx(
            1.0 / (d + 1), rel=1e-13
        ), d


@pytest.mark.parametrize("order", [0, -3, 21])
def test_order_bounds_rejected(order):
    with pytest.raises(ValueError):
        triangle_quadrature(order)
    with pytest.raises(ValueError):
        edge_quadrature(order)


def test_map_to_physical_area():
    verts = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 2.0]])
    r = triangle_quadrature(3)
    pts = map_to_physical(r, verts)
    area = 1.0  # |det| / 2 = (2*1)/2
    val = (r.weights * 2 * area * np.ones(r.npts)).sum()
    assert val == pytest.approx(area, abs=1e-14)
    assert pts.shape == (r.npts, 2)
    assert np.all(pts[:, 0] >= 1.0) and np.all(pts[:, 1] >= 1.0)


def test_map_to_physical_matches_einsum_reference():
    # the batched matmul sums the three barycentric terms in another order
    # than the einsum it replaced; the points are sums of nonnegative terms
    rng = np.random.default_rng(0)
    verts = rng.uniform(0.0, 1.0, size=(50, 3, 2))
    for order in range(1, MAX_ORDER + 1):
        r = triangle_quadrature(order)
        ref = np.einsum("pb,...bd->...pd", r.points, verts)
        pts = map_to_physical(r, verts)
        assert pts.shape == ref.shape
        assert np.all(np.abs(pts - ref) <= 2 * np.spacing(ref))
