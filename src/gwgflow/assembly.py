"""Global assembly of the saddle-point system.

Every routine takes the ``ElementKernels`` of one mesh/config pair, whose
``dofmap`` fixes the global numbering.  All matrices are assembled over
the full (unreduced) DOF sets; the Dirichlet reduction is recorded on the
``SaddleSystem`` and applied when the linear operator is formed, with one
pressure DOF pinned; ``expand`` shifts the pressure to zero mean.

Element matrices are the source.  The velocity forms act on each velocity
component alone and in the same way, so their element matrices are
component-local and placed on both components.  ``SaddleSystem`` holds
them as ``A_local`` (``mu viscous + s1``, with ``rho/tau mass`` for a
backward-Euler step, per shape class, plus ``rho convection`` per element)
and the divergence element matrix of each shape class as ``B_local``;
``A`` and ``B`` are their scatters, in element index order.

The condensed set of an element is its interior velocity and, when sigma
is 0, its ``dn - 1`` non-constant pressure modes, which then couple only
to the element's own unknowns (with sigma = 1 the jumps ``S2`` couple
neighbouring pressures).  The solver eliminates it element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .localops import ElementKernels, _eval_field, project_boundary_traces

COMPAT_TOL = 1e-10  # relative bound on the net boundary flux of g

FORMS = ("viscous", "convection", "s1", "s2", "divergence", "mass")


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sp.csr_matrix:
    """Sum ``local[..., r, c]`` into ``(rows[..., r], cols[..., c])``, broadcasting."""
    full = rows.shape + cols.shape[-1:]
    mat = sp.coo_matrix(
        (
            np.broadcast_to(local, full).ravel(),
            (
                np.broadcast_to(rows[..., :, None], full).ravel(),
                np.broadcast_to(cols[..., None, :], full).ravel(),
            ),
        ),
        shape=shape,
    )
    return mat.tocsr()


def _scatter_components(ker: ElementKernels, local: np.ndarray) -> sp.csr_matrix:
    """Place the component-local element matrices ``local`` on both components.

    ``local`` has shape (nT, nr, nc), its rows and columns the first nr and
    nc slots of the component-local layout: ``dk`` for the interior DOFs,
    ``ncomp`` for all of them.
    """
    vel = ker.dofmap.elem_vel
    nr, nc = local.shape[1:]
    rows = vel[:, ker.comp_cols[:, :nr]]                 # (nT, 2, nr)
    cols = vel[:, ker.comp_cols[:, :nc]]                 # (nT, 2, nc)
    n = ker.dofmap.n_velocity
    mat = _scatter(local[:, None], rows, cols, (n, n))
    # exact zeros (here: traces of two edges that an element's geometry
    # decouples) are dropped, as sparse sums of the single forms drop them,
    # so the sparsity and with it the LU ordering do not depend on the path
    mat.eliminate_zeros()
    return mat


def assemble_bilinear(form: str, kernels: ElementKernels, beta=None) -> sp.csr_matrix:
    """Assemble one bilinear-form block as a sparse matrix.

    ``viscous``, ``convection``, ``s1`` and ``mass`` couple velocity against
    velocity; ``divergence`` maps velocity to pressure test functions;
    ``s2`` couples pressure against pressure (identically zero when
    sigma == 0).  ``beta`` is required for (and only for) the convection
    form and is evaluated at the volume quadrature points.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}, expected one of {FORMS}")
    if form == "convection" and beta is None:
        raise ValueError("convection form requires a convection field beta")

    ker, config, dm = kernels, kernels.config, kernels.dofmap
    if form == "s2":
        return _assemble_s2(ker)
    if form == "divergence":
        local = _divergence_local(ker)[ker.shape_class]
        return _scatter(local, dm.elem_pres, dm.elem_vel, (dm.n_pressure, dm.n_velocity))
    if form == "mass":
        return _scatter_components(ker, config.rho * ker.Mk)
    if form == "s1":
        return _scatter_components(ker, ker.stabilizer_local())
    W = ker.weak_gradient_values()
    if form == "viscous":
        return _scatter_components(ker, (config.mu * _viscous_local(ker, W))[ker.shape_class])
    return _scatter_components(ker, config.rho * _convection_local(ker, W, beta))


def assemble_velocity_block(kernels: ElementKernels, beta) -> sp.csr_matrix:
    """The velocity block ``mu viscous + rho convection + s1`` in one scatter."""
    return _scatter_components(kernels, _velocity_local(kernels, beta))


def _velocity_local(ker: ElementKernels, beta, tau: float | None = None) -> np.ndarray:
    """Component-local ``[rho/tau mass +] mu viscous + s1 + rho convection``.

    All but the convection are formed per shape class; (nT, ncomp, ncomp).
    """
    cfg, dk = ker.config, ker.dk
    W = ker.weak_gradient_values()
    local = cfg.mu * _viscous_local(ker, W) + ker._s1
    if tau is not None:
        local[:, :dk, :dk] += cfg.rho * ker.Mk[ker.reps] / tau
    local = local[ker.shape_class]
    local[:, :dk] += cfg.rho * _convection_local(ker, W, beta)
    return local


def _viscous_local(ker: ElementKernels, W: np.ndarray) -> np.ndarray:
    """(grad_w phi_j, grad_w phi_i) per shape class, (nC, ncomp, ncomp)."""
    W, qw, ncomp = W[ker.reps], ker.qw[ker.reps], W.shape[-1]
    wW = (W * qw[:, None, :, None]).reshape(len(W), -1, ncomp)
    return np.matmul(W.reshape(len(W), -1, ncomp).transpose(0, 2, 1), wW)


def _divergence_local(ker: ElementKernels) -> np.ndarray:
    """(div_w phi_j, q_i) per shape class, (nC, dn, nloc)."""
    r = ker.reps
    M_nm = np.einsum("tp,tpi,tpj->tij", ker.qw[r], ker.Vn[r], ker.Vm[r])
    return np.matmul(M_nm, ker.div[r])


def _convection_local(ker: ElementKernels, W: np.ndarray, beta) -> np.ndarray:
    """(beta . grad_w phi_j, phi_i) for the interior test functions, (nT, dk, ncomp)."""
    x, y = ker.qp[..., 0], ker.qp[..., 1]
    bvals = _eval_field("convection field beta", beta, x, y)    # (nT, np, 2)
    bW = bvals[..., 0, None] * W[:, 0] + bvals[..., 1, None] * W[:, 1]
    return np.matmul(ker.wVk.transpose(0, 2, 1), bW)


def _assemble_s2(ker: ElementKernels) -> sp.csr_matrix:
    mesh, config, dm = ker.mesh, ker.config, ker.dofmap
    npres = dm.n_pressure
    if config.sigma == 0:
        return sp.csr_matrix((npres, npres))
    interior = np.flatnonzero(mesh.edge_elements[:, 1] >= 0)
    t1, t2 = mesh.edge_elements[interior].T
    le1, le2 = mesh.edge_local_index[interior].T
    Vo = ker.Vn_e[t1, le1]                       # (nie, nq, dn)
    Vn_ = ker.Vn_e[t2, le2]
    jump = np.concatenate([Vo, -Vn_], axis=2)    # (nie, nq, 2*dn)
    he = mesh.h_edge[interior]
    wq = ker.edge_w[None, :] * he[:, None]       # physical edge measure
    scale = config.sigma * he**config.alpha
    local = scale[:, None, None] * np.einsum("eq,eqa,eqb->eab", wq, jump, jump)
    cols = np.concatenate([dm.elem_pres[t1], dm.elem_pres[t2]], axis=1)
    return _scatter(local, cols, cols, (npres, npres))


def assemble_load(kernels: ElementKernels, f, time: float | None = None) -> np.ndarray:
    """Load vector (f, v0); only interior velocity entries are nonzero."""
    vals = _eval_field("forcing f", f, kernels.qp[..., 0], kernels.qp[..., 1], time)
    vec = np.zeros(kernels.dofmap.n_velocity)
    interior, _ = kernels.dofmap.split_velocity(vec)
    interior[...] = kernels.interior_moments(vals)
    return vec


@dataclass
class SaddleSystem:
    """Element matrices, their scatters, and boundary and zero-mean bookkeeping.

    ``A_local`` is (nT, ncomp, ncomp) and ``B_local`` (nC, dn, nloc); the
    mesh, config and DOF numbering are read through ``kernels``.
    """

    kernels: ElementKernels
    A: sp.csr_matrix
    B: sp.csr_matrix
    S2: sp.csr_matrix
    A_local: np.ndarray
    B_local: np.ndarray
    rhs_vel: np.ndarray
    dirichlet_values: np.ndarray | None = None
    mean_vector: np.ndarray | None = None
    _reduced: dict = field(default_factory=dict, repr=False)

    def reduced_blocks(self):
        """Slices of A and B split into free and boundary velocity columns."""
        if not self._reduced:
            dm = self.kernels.dofmap
            free, bnd, A = dm.free_dofs, dm.boundary_dofs, self.A
            self._reduced = {
                "A_ff": A[free][:, free],
                "A_fb": A[free][:, bnd].tocsr(),
                "B_f": self.B[:, free].tocsr(),
                "B_b": self.B[:, bnd].tocsr(),
            }
        return self._reduced

    def matrix(self) -> sp.csr_matrix:
        """The Dirichlet-reduced, pressure-pinned ``[[A_ff, -B_f^T], [B_f, S2]]``.

        The row and column of pressure DOF ``elem_pres[0, 0]`` are deleted:
        constants are the only pressure null space.  Built on the first call
        and cached in CSR, with the index of the kept pressure DOFs, on the
        blocks of ``reduced_blocks``.
        """
        red = self.reduced_blocks()
        if "K" not in red:
            dm = self.kernels.dofmap
            keep = np.delete(np.arange(dm.n_pressure), dm.elem_pres[0, 0])
            B_k = red["B_f"][keep]
            red["keep"] = keep
            red["K"] = sp.bmat(
                [[red["A_ff"], -B_k.T], [B_k, self.S2[keep][:, keep]]], format="csr"
            )
        return red["K"]

    def operator(self):
        """The cached ``matrix()`` and the right-hand side of the current data.

        The right-hand side is formed on every call from ``rhs_vel`` and the
        boundary data.  The equation dropped with the pinned pressure DOF, the
        sum of the constant-mode rows, says that g has no net outward flux; a
        ``ValueError`` is raised when that fails by more than ``COMPAT_TOL``.
        """
        if self.dirichlet_values is None:
            raise ValueError("apply_dirichlet must run before forming the operator")
        if self.mean_vector is None:
            raise ValueError("constrain_system must run before forming the operator")
        K = self.matrix()
        red, dm = self._reduced, self.kernels.dofmap
        g = self.dirichlet_values
        r_vel = self.rhs_vel[dm.free_dofs] - red["A_fb"] @ g
        b_g = red["B_b"] @ g
        flux = b_g[dm.elem_pres[:, 0]]
        if abs(flux.sum()) > COMPAT_TOL * np.abs(flux).sum():
            raise ValueError(f"boundary data g has net outward flux {flux.sum():.3e}, not 0")
        return K, np.concatenate([r_vel, -b_g[red["keep"]]])

    def expand(self, x: np.ndarray):
        """Full velocity and pressure vectors of a solution of ``operator()``.

        The pinned pressure DOF is put back as 0, then every element's
        constant mode is shifted by one value so that ``mean_vector @ pres``
        is 0.  Both vectors are new arrays, so a kept state does not hold x.
        """
        dm = self.kernels.dofmap
        nfree, const = dm.free_dofs.size, dm.elem_pres[:, 0]
        vel = np.zeros(dm.n_velocity)
        vel[dm.free_dofs] = x[:nfree]
        vel[dm.boundary_dofs] = self.dirichlet_values
        pin = nfree + const[0]
        pres = np.empty(dm.n_pressure)
        pres[: const[0]] = x[nfree:pin]
        pres[const[0]] = 0.0
        pres[const[0] + 1 :] = x[pin:]
        pres[const] -= (self.mean_vector @ pres) / self.mean_vector[const].sum()
        return vel, pres


def build_saddle_system(kernels: ElementKernels, beta, tau: float | None = None) -> SaddleSystem:
    """Form the element matrices and scatter them; ``rhs_vel`` starts at zero.

    With ``tau``, ``rho/tau`` times the mass enters the velocity element sum
    (a backward-Euler step).  The caller sets ``rhs_vel`` (for instance from
    ``assemble_load``) before forming the operator.
    """
    A_local = _velocity_local(kernels, beta, tau)
    return SaddleSystem(
        kernels=kernels,
        A=_scatter_components(kernels, A_local),
        B=assemble_bilinear("divergence", kernels),
        S2=assemble_bilinear("s2", kernels),
        A_local=A_local,
        B_local=_divergence_local(kernels),
        rhs_vel=np.zeros(kernels.dofmap.n_velocity),
    )


def apply_dirichlet(system: SaddleSystem, g, time: float | None = None) -> SaddleSystem:
    """Set boundary trace DOFs to Q_b g and mark them eliminated.

    The eliminated couplings move to the right-hand side when the reduced
    operator is formed, so the same system can be re-lifted with new
    boundary data (time stepping) without reassembly.
    """
    traces = project_boundary_traces(system.kernels, g, time)
    system.dirichlet_values = traces.reshape(-1)
    return system


def constrain_system(system: SaddleSystem) -> SaddleSystem:
    """Record ``mean_vector``, with ``mean_vector @ p`` the integral of p."""
    ker = system.kernels
    mean = np.einsum("tp,tpi->ti", ker.qw, ker.Vn).reshape(-1)
    system.mean_vector = mean
    return system
