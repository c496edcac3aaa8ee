"""Polynomial bases: scaled monomials on triangles, shifted Legendre on edges.

Triangle basis functions are monomials in the centered coordinates
``((x - xc)/h, (y - yc)/h)`` with ``xc`` the element centroid and ``h`` the
element diameter, ordered by total degree and then by the y-exponent:
1, xi, eta, xi^2, xi*eta, eta^2, ...  Edge basis functions are Legendre
polynomials shifted to the arc-length parameter s in [0, 1] along the
edge's stored vertex order, so shared edges see one single-valued basis.
"""

from __future__ import annotations

import numpy as np


def dim_p(degree: int) -> int:
    """Dimension of the bivariate polynomial space P_degree."""
    return (degree + 1) * (degree + 2) // 2


def tri_exponents(degree: int) -> np.ndarray:
    """(dim, 2) array of (x, y) exponent pairs in basis order."""
    exps = [(t - b, b) for t in range(degree + 1) for b in range(t + 1)]
    return np.array(exps, dtype=np.int64)


def eval_tri_values(degree: int, pts: np.ndarray) -> np.ndarray:
    """Monomial values at centered-scaled points ``pts`` of shape (..., 2).

    Returns shape (..., dim_p(degree)).
    """
    exps = tri_exponents(degree)
    x = pts[..., 0, None]
    y = pts[..., 1, None]
    return x ** exps[:, 0] * y ** exps[:, 1]


def eval_tri_gradients(degree: int, pts: np.ndarray, h: np.ndarray | float) -> np.ndarray:
    """Physical gradients of the scaled monomials.

    ``pts`` are centered-scaled coordinates of shape (..., 2); ``h`` is the
    element diameter used in the scaling (broadcastable against the leading
    axes of ``pts``).  Returns shape (..., 2, dim).
    """
    exps = tri_exponents(degree)
    x = pts[..., 0, None]
    y = pts[..., 1, None]
    ax, ay = exps[:, 0], exps[:, 1]
    # d/dxi xi^a eta^b = a xi^(a-1) eta^b; clip avoids 0**-1 (term is zeroed by a)
    gx = ax * x ** np.maximum(ax - 1, 0) * y ** ay
    gy = ay * x ** ax * y ** np.maximum(ay - 1, 0)
    grad = np.stack([gx, gy], axis=-2)
    h = np.asarray(h, dtype=float)
    return grad / h[..., None, None]


def eval_edge_values(degree: int, s: np.ndarray) -> np.ndarray:
    """Shifted Legendre values at parameters ``s`` in [0, 1], shape (..., degree+1)."""
    return np.polynomial.legendre.legvander(2.0 * np.asarray(s) - 1.0, degree)
