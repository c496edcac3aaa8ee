"""Error norms against manufactured solutions and scheme diagnostics.

The diagnostics turn the stability ingredients of the scheme into numbers:
the energy-norm kernel on the zero-boundary subspace, the discrete inf-sup
constant, the coercivity margin of the convective bilinear form, and the
two defining identities of the weak gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import _scatter_components, assemble_bilinear, assemble_velocity_block
from .basis import dim_p, eval_tri_gradients, eval_tri_values, tri_exponents
from .config import require_integer
from .localops import (
    ElementKernels,
    _eval_field,
    _project_edges,
    _project_interior,
    _project_pressure_values,
    project_velocity,
)

DENSE_EIG_LIMIT = 5000


@dataclass
class ErrorReport:
    """Discretization errors of one solve."""

    energy: float
    l2_velocity_proj: float
    l2_velocity_true: float
    l2_pressure_proj: float
    l2_pressure_true: float


def energy_seminorm(kernels: ElementKernels, vel_vector: np.ndarray) -> float:
    """Energy seminorm ``sqrt(sum_T (grad_w v, grad_w v)_T + s1(v, v))``.

    It is the quadratic form of the unit-viscosity element matrices
    ``viscous + s1`` of each shape class, over every element and both
    velocity components.  ``viscous`` is ``W^T diag(qw) W``, with ``W`` the
    weak gradient of the shape functions at the volume points, so the form
    is the point-value norm ``sum_p qw_p |W e|^2`` of the same quadrature
    with its sums regrouped: equal up to rounding.
    """
    ker = kernels
    e = np.take(vel_vector[ker.dofmap.elem_vel], ker.comp_cols, axis=1)   # (nT, 2, ncomp)
    local = (ker.classes.viscous + ker.classes.s1)[ker.shape_class]
    total = float(np.vdot(np.matmul(e, local), e))
    return float(np.sqrt(max(total, 0.0)))


def evaluate_errors(solution, problem) -> ErrorReport:
    """All error norms of a solved state at its own time stamp.

    The exact ``u`` and ``p`` are evaluated once at the volume quadrature
    points; those values serve both the vs-exact norms and the local
    projections.  The energy error is measured against Q_h u; the
    L2 errors of the interior velocity and of the pressure against both
    the local L2 projection and the exact field.
    """
    ker, t = solution.system.kernels, solution.time
    dm = ker.dofmap
    u_exact = _eval_field("exact velocity", problem.u, *ker.qxy, t)
    p_exact = _eval_field("exact pressure", problem.p, *ker.qxy, t)
    u_interior = _project_interior(ker, u_exact)
    u_traces = _project_edges(ker, _eval_field("exact velocity", problem.u, *ker.edge_xy, t))
    p_proj = _project_pressure_values(ker, p_exact)

    u_vec = solution.velocity_vector
    u_h = np.matmul(ker.Vk, dm.split_velocity(u_vec)[0].transpose(0, 2, 1))
    p_h = np.matmul(ker.Vn, solution.pressure_vector[dm.elem_pres, None])[..., 0]
    u_q = np.matmul(ker.Vk, u_interior.transpose(0, 2, 1))
    p_q = np.matmul(ker.Vn, p_proj[..., None])[..., 0]

    def norm(diff2):
        return float(np.sqrt(np.einsum("tp,tp->", ker.qw, diff2)))

    return ErrorReport(
        energy=energy_seminorm(ker, dm.velocity_vector(u_interior, u_traces) - u_vec),
        l2_velocity_proj=norm((u_h - u_q) ** 2 @ np.ones(2)),
        l2_velocity_true=norm((u_h - u_exact) ** 2 @ np.ones(2)),
        l2_pressure_proj=norm((p_h - p_q) ** 2),
        l2_pressure_true=norm((p_h - p_exact) ** 2),
    )


# -- weak-operator identities -------------------------------------------------


@dataclass
class IdentityReport:
    """Residuals of the two weak-gradient identities over random trials."""

    max_residual_identity1: float
    max_residual_identity2: float
    trials: int
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_residual_identity1 <= self.tol
            and self.max_residual_identity2 <= self.tol
        )


def check_weak_identities(
    kernels: ElementKernels,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-11,
) -> IdentityReport:
    """Element-wise check of the two defining weak-gradient identities.

    Identity 1 tests arbitrary discrete functions against random tensor
    polynomials of degree <= min(j, l); identity 2 tests the weak gradient
    of the projected interpolant of random vector polynomials of degree
    k + 1 (quadrature-exact, so residuals are pure roundoff).
    """
    if require_integer("trials", trials) < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    ker, mesh, config, dm = kernels, kernels.mesh, kernels.config, kernels.dofmap
    rng = np.random.default_rng(seed)
    s = config.s
    ds = dim_p(s)
    nT = mesh.n_elements
    h = mesh.h_elem[:, None]

    Vs = eval_tri_values(s, ker.local)
    Gs = eval_tri_gradients(s, ker.local, h)
    Vs_e = eval_tri_values(s, ker.local_e)
    W = ker.W                                # (nT, 2, np, ncomp)
    wq_edge = ker.edge_w[None, None, :] * ker.elen[:, :, None]
    exps = tri_exponents(config.k + 1)
    Gk1 = eval_tri_gradients(config.k + 1, ker.qp, 1.0)

    max1 = 0.0
    max2 = 0.0
    for _ in range(trials):
        phi = rng.uniform(-1.0, 1.0, size=(nT, 2, 2, ds))
        phi_vol = np.einsum("tcqa,tpa->tpcq", phi, Vs)
        div_phi = np.einsum("tcqa,tpqa->tpc", phi, Gs)

        # identity 1: arbitrary per-element DOF values
        v = rng.uniform(-1.0, 1.0, size=(nT, ker.nloc))
        vc = v[:, ker.comp_cols]                           # (nT, 2, ncomp)
        wg = np.einsum("tqpa,tca->tpcq", W, vc)
        lhs = np.einsum("tp,tpcq,tpcq->t", ker.qw, wg, phi_vol)
        v0 = np.einsum("tpi,tci->tpc", ker.Vk, vc[..., : ker.dk])
        rhs = -np.einsum("tp,tpc,tpc->t", ker.qw, v0, div_phi)
        vb = _trace_values(ker, v)                         # (nT, 3, nq, 2)
        phi_edge = np.einsum("tcqa,tEpa->tEpcq", phi, Vs_e)
        phin = np.einsum("tEpcq,tEq->tEpc", phi_edge, ker.normals)
        rhs += np.einsum("tEp,tEpc,tEpc->t", wq_edge, vb, phin)
        max1 = max(max1, float(np.abs(lhs - rhs).max()))

        # identity 2: projected interpolant of a random vector polynomial
        coeff = rng.uniform(-1.0, 1.0, size=(2, exps.shape[0]))

        def w_poly(x, y, t=None, coeff=coeff):
            basis = x[..., None] ** exps[:, 0] * y[..., None] ** exps[:, 1]
            return np.einsum("...a,ca->...c", basis, coeff)

        interior, traces = project_velocity(ker, w_poly)
        eloc = dm.velocity_vector(interior, traces)[dm.elem_vel[:, ker.comp_cols]]
        wgq = np.einsum("tqpa,tca->tpcq", W, eloc)
        lhs2 = np.einsum("tp,tpcq,tpcq->t", ker.qw, wgq, phi_vol)

        grad_w = np.einsum("ca,tpqa->tpcq", coeff, Gk1)
        rhs2 = np.einsum("tp,tpcq,tpcq->t", ker.qw, grad_w, phi_vol)
        wvals = w_poly(*ker.qxy)
        q0w = np.einsum("tci,tpi->tpc", interior, ker.Vk)
        rhs2 += np.einsum("tp,tpc,tpc->t", ker.qw, wvals - q0w, div_phi)
        max2 = max(max2, float(np.abs(lhs2 - rhs2).max()))

    return IdentityReport(
        max_residual_identity1=max1,
        max_residual_identity2=max2,
        trials=trials,
        tol=tol,
    )


def _trace_values(ker: ElementKernels, vloc: np.ndarray) -> np.ndarray:
    """Trace-part values of local DOF vectors at edge points, (nT, 3, nq, 2)."""
    coeff = vloc[:, 2 * ker.dk :].reshape(vloc.shape[0], 3, 2, ker.dj)  # (edge, component)
    return np.einsum("tlca,qa->tlqc", coeff, ker.Qj)


# -- stability diagnostics ----------------------------------------------------


def _energy_matrix(kernels: ElementKernels) -> sp.csr_matrix:
    """The matrix of the energy norm: the unit-viscosity ``viscous + s1``, scattered."""
    c = kernels.classes
    return _scatter_components(kernels, (c.viscous + c.s1)[kernels.shape_class])


def _min_eig_symmetric(A: sp.spmatrix) -> float:
    n = A.shape[0]
    if n <= DENSE_EIG_LIMIT:
        return float(scipy.linalg.eigvalsh(A.toarray())[0])
    try:
        vals = spla.eigsh(A, k=1, which="SA", maxiter=5000, tol=1e-9,
                          return_eigenvectors=False)
        return float(vals[0])
    except spla.ArpackNoConvergence:
        vals = spla.eigsh(A, k=1, sigma=0.0, which="LM",
                          return_eigenvectors=False)
        return float(vals[0])


def kernel_min_eigenvalue(kernels: ElementKernels) -> float:
    """Smallest eigenvalue of the energy-norm matrix on the zero-trace subspace.

    Strictly positive exactly when the energy seminorm is a norm there.
    """
    K = _energy_matrix(kernels)
    free = kernels.dofmap.free_dofs
    return _min_eig_symmetric(K[free][:, free])


def estimate_infsup(kernels: ElementKernels) -> float:
    """Discrete inf-sup constant of the divergence coupling.

    Smallest nonzero generalized eigenvalue of B (K + S1)^{-1} B^T against
    the pressure mass matrix, square-rooted: the smallest, the 0 of the
    constant pressure, is skipped.  An eigenvalue at or below ``npres * eps``
    times the spectrum's bound ``||S||_inf / lambda_min(Mp)`` is rounding
    and reads 0, as a singular value does in ``numpy.linalg.matrix_rank``.
    The eigenproblem is dense: above ``DENSE_EIG_LIMIT`` pressure DOFs
    ``ValueError`` is raised before any array is formed.
    """
    ker, dm = kernels, kernels.dofmap
    npres = dm.n_pressure
    if npres > DENSE_EIG_LIMIT:
        raise ValueError(f"the inf-sup estimate forms dense {npres} x {npres} arrays: "
                         f"{npres} pressure DOFs exceed DENSE_EIG_LIMIT = {DENSE_EIG_LIMIT}")
    free = dm.free_dofs
    K = _energy_matrix(ker)[free][:, free].tocsc()
    B_f = assemble_bilinear("divergence", ker)[:, free].tocsc()

    lu = spla.splu(K)
    S = np.empty((npres, npres))
    step = max(1, min(256, npres))
    Bt = B_f.T.tocsc()
    for start in range(0, npres, step):
        cols = slice(start, min(start + step, npres))
        X = lu.solve(Bt[:, cols].toarray())
        S[:, cols] = B_f @ X

    # pressure DOFs are per-element contiguous, so the mass matrix is block-diagonal
    Mp = sp.block_diag(ker.Mn, format="csr").toarray()
    # B^T annihilates the constant pressure: the smallest eigenvalue is its 0
    lam = scipy.linalg.eigh(S, Mp, eigvals_only=True, subset_by_index=[1, 1])[0]
    bound = np.abs(S).sum(axis=1).max() / np.linalg.eigvalsh(ker.classes.Mn).min()
    return float(np.sqrt(lam)) if lam > npres * np.finfo(float).eps * bound else 0.0


def estimate_coercivity(kernels: ElementKernels, beta) -> float:
    """Coercivity margin of the full velocity bilinear form.

    Smallest eigenvalue of the symmetric part of the Dirichlet-reduced
    velocity block, scaled by its largest diagonal entry.  A positive value
    backs unique solvability of the scheme with this convection field.
    """
    free = kernels.dofmap.free_dofs
    A = assemble_velocity_block(kernels, beta)[free][:, free]
    sym = ((A + A.T) * 0.5).tocsr()
    scale = float(sym.diagonal().max())
    return _min_eig_symmetric(sym) / scale


def incompressibility_residual(solution) -> float:
    """Max-norm residual of the discrete divergence equation ``B u + S2 p``.

    Every row is checked, with the one the pinned solve drops, so a
    consistent solve leaves pure roundoff.  ``B u`` is formed element by
    element from ``B_local``: each element's pressure DOFs are contiguous.
    """
    system, ker = solution.system, solution.system.kernels
    u = solution.velocity_vector[ker.dofmap.elem_vel, None]
    r = np.matmul(system.B_local[ker.shape_class], u).reshape(-1)
    r += system.S2 @ solution.pressure_vector
    return float(np.abs(r).max())
