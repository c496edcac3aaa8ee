"""Quadrature rules on the reference triangle and the unit interval."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 20


@dataclass(frozen=True)
class QuadRule:
    """Points and weights on a reference entity.

    Triangle rules store barycentric points (npts, 3) with weights summing
    to the reference area 1/2; edge rules store parametric points in [0, 1]
    with weights summing to 1.  ``order`` is the highest polynomial degree
    integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    order: int

    @property
    def npts(self) -> int:
        return self.weights.shape[0]


def _check_order(order: int) -> int:
    order = int(order)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {order}")
    return order


@lru_cache(maxsize=None)
def edge_quadrature(order: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1], exact for degree <= order."""
    order = _check_order(order)
    npts = (order + 2) // 2
    x, w = np.polynomial.legendre.leggauss(npts)
    return QuadRule(points=(x + 1.0) / 2.0, weights=w / 2.0, order=2 * npts - 1)


def _gauss_jacobi_1_0(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule on [-1, 1] for the weight (1 - x), by Golub-Welsch.

    The nodes are the eigenvalues of the Jacobi matrix of the weight's
    orthogonal polynomials (alpha = 1, beta = 0): diagonal
    ``-1 / ((2k+1)(2k+3))`` and off-diagonal ``sqrt(k(k+1)) / (2k+1)``; the
    weights are the weight's integral, 2, times the squared first
    eigenvector components.  Nodes ascend.
    """
    k = np.arange(npts)
    diag = -1.0 / ((2 * k + 1) * (2 * k + 3))
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2 * k[1:] + 1)
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * vecs[0] ** 2


@lru_cache(maxsize=None)
def triangle_quadrature(order: int) -> QuadRule:
    """Conical-product rule on the triangle {(0,0),(1,0),(0,1)}.

    Tensor product of Gauss-Legendre in one direction and Gauss-Jacobi with
    weight (1 - eta) in the other, collapsed onto the triangle; exact for all
    bivariate polynomials of total degree <= order.
    """
    order = _check_order(order)
    npts_1d = (order + 2) // 2

    xi, w_xi = np.polynomial.legendre.leggauss(npts_1d)
    xi, w_xi = (xi + 1.0) / 2.0, w_xi / 2.0
    xj, w_xj = _gauss_jacobi_1_0(npts_1d)
    eta, w_eta = (xj + 1.0) / 2.0, w_xj / 4.0

    x = np.outer(xi, 1.0 - eta).ravel()
    y = np.tile(eta, npts_1d)
    w = np.outer(w_xi, w_eta).ravel()

    bary = np.column_stack([1.0 - x - y, x, y])
    return QuadRule(points=bary, weights=w, order=2 * npts_1d - 1)


def map_to_physical(rule: QuadRule, verts: np.ndarray) -> np.ndarray:
    """Map barycentric points onto physical triangles.

    ``verts`` has shape (..., 3, 2); the result has shape (..., npts, 2),
    one batched ``matmul`` of the (npts, 3) barycentric points by ``verts``.
    """
    return np.matmul(rule.points, verts)
