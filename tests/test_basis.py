import numpy as np

from gwgflow.basis import (
    dim_p,
    eval_edge_values,
    eval_tri_gradients,
    eval_tri_values,
    tri_exponents,
)
from gwgflow.mesh import build_uniform_triangulation


def _element_basis(mesh, t, degree, pts):
    """Values and physical gradients of element ``t``'s basis at ``pts``."""
    local = (pts - mesh.centroids[t]) / mesh.h_elem[t]
    return eval_tri_values(degree, local), eval_tri_gradients(degree, local, mesh.h_elem[t])


def test_dimensions():
    assert [dim_p(d) for d in range(4)] == [1, 3, 6, 10]
    assert tri_exponents(2).tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_degree_zero_is_one():
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(7, 2))
    vals = eval_tri_values(0, pts)
    assert vals.shape == (7, 1)
    assert np.all(vals == 1.0)


def test_degree_one_gradients_constant():
    mesh = build_uniform_triangulation(2)
    pts = mesh.centroids[3] + np.array([[0.0, 0.0], [0.01, 0.02], [-0.03, 0.01]])
    vals, grads = _element_basis(mesh, 3, 1, pts)
    assert vals.shape == (3, 3)
    # gradients of the three P1 basis functions are constant over the element
    assert np.allclose(grads - grads[0], 0.0, atol=1e-14)


def test_gradient_matches_finite_differences():
    mesh = build_uniform_triangulation(4)
    t = 11
    rng = np.random.default_rng(3)
    pts = mesh.centroids[t] + rng.uniform(-0.05, 0.05, size=(5, 2))
    eps = 1e-6
    for degree in (1, 2, 3):
        _, grads = _element_basis(mesh, t, degree, pts)
        vx1, _ = _element_basis(mesh, t, degree, pts + [eps, 0.0])
        vx0, _ = _element_basis(mesh, t, degree, pts - [eps, 0.0])
        vy1, _ = _element_basis(mesh, t, degree, pts + [0.0, eps])
        vy0, _ = _element_basis(mesh, t, degree, pts - [0.0, eps])
        fd = np.stack([(vx1 - vx0) / (2 * eps), (vy1 - vy0) / (2 * eps)], axis=1)
        assert np.allclose(grads, fd, atol=1e-7)


def test_affine_interpolant_of_x_has_unit_gradient():
    # interpolate f(x, y) = x exactly in the P1 basis and check its gradient
    mesh = build_uniform_triangulation(4)
    t = 7
    verts = mesh.vertices[mesh.elements[t]]
    vals, _ = _element_basis(mesh, t, 1, verts)
    coeff = np.linalg.solve(vals, verts[:, 0])
    pts = mesh.centroids[t] + np.array([[0.0, 0.0], [0.02, -0.01]])
    _, grads = _element_basis(mesh, t, 1, pts)
    grad_f = np.einsum("pqi,i->pq", grads, coeff)
    assert np.allclose(grad_f, [1.0, 0.0], atol=1e-12)


def test_edge_basis_orthogonality():
    from gwgflow.quadrature import edge_quadrature

    degree = 3
    r = edge_quadrature(2 * degree + 1)
    Q = eval_edge_values(degree, r.points)
    mass = np.einsum("q,qa,qb->ab", r.weights, Q, Q)
    # shifted Legendre on [0, 1]: diagonal 1 / (2d + 1)
    assert np.allclose(mass, np.diag(1 / (2 * np.arange(degree + 1) + 1)), atol=1e-14)


def test_scaled_monomials_are_order_one_on_element():
    mesh = build_uniform_triangulation(8)
    t = 37
    verts = mesh.vertices[mesh.elements[t]]
    vals, _ = _element_basis(mesh, t, 3, verts)
    assert np.abs(vals).max() <= 1.0 + 1e-12
