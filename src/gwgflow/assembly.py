"""Global assembly of the saddle-point system.

Every routine takes the ``ElementKernels`` of one mesh/config pair, whose
``dofmap`` fixes the global numbering.  A solve works on one pinned
numbering, ``SaddleSystem.K_of``: the free velocity DOFs, then every
pressure DOF but ``elem_pres[0, 0]`` (constants are the only pressure null
space), each in global order; ``expand`` shifts the pressure to zero mean.

Element matrices are the source.  ``SaddleSystem.A_local`` is the
component-local velocity matrix, placed on both components: ``mu viscous
+ s1`` (with ``rho/tau mass`` for a backward-Euler step) per shape class
plus ``rho convection`` per element; ``B_local`` is the divergence matrix
of each shape class.  ``element_layout`` places both on every element's
unknowns; the pinned ``K`` and its boundary-lifting columns are one scatter
of it, and the solver condenses it element by element: the interior
velocity and, when sigma is 0, the ``dn - 1`` non-constant pressure modes,
which then couple only to the element's own unknowns (with sigma = 1 the
jumps ``S2`` couple neighbouring pressures).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .localops import ElementKernels, _eval_field, project_boundary_traces

COMPAT_TOL = 1e-10  # relative bound on the net boundary flux of g

FORMS = ("viscous", "convection", "s1", "s2", "divergence", "mass")


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sp.csr_matrix:
    """Sum ``local[..., r, c]`` into ``(rows[..., r], cols[..., c])``, broadcasting.

    Entries with a negative row or column are left out, and so are exact
    zeros, also those of a sum (for instance traces of two edges that an
    element's geometry decouples), so the sparsity does not depend on how
    a sum of forms is grouped.
    """
    r, c, v = np.broadcast_arrays(rows[..., :, None], cols[..., None, :], local)
    take = (v != 0) & (r >= 0) & (c >= 0)
    mat = sp.csr_matrix((v[take], (r[take], c[take])), shape=shape)
    mat.eliminate_zeros()
    return mat


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
    return _scatter(local[:, None], rows, cols, (n, n))


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
    """Element matrices, the pinned numbering and the data of one solve.

    ``A_local`` is (nT, ncomp, ncomp), ``B_local`` (nC, dn, nloc); ``K_of``
    is the ``K`` index of every velocity DOF, then of every pressure DOF,
    -1 for boundary traces and the pinned pressure.
    """

    kernels: ElementKernels
    A_local: np.ndarray
    B_local: np.ndarray
    S2: sp.csr_matrix
    K_of: np.ndarray
    rhs_vel: np.ndarray
    dirichlet_values: np.ndarray | None = None
    mean_vector: np.ndarray | None = None
    _blocks: tuple | None = field(default=None, repr=False)

    def element_layout(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Every element's ``[[A, -B^T], [B, 0]]``, (nT, nloc+dn, nloc+dn).

        With the global index of each unknown (pressures after velocities)
        and the count ``c`` of condensed unknowns, which lead.  Free it after
        use: it is several times the size of ``A_local``.
        """
        ker = self.kernels
        dm, nloc, dn = ker.dofmap, ker.nloc, ker.dn
        # element unknowns (velocity slots, pressure modes), the c condensed first
        cond = np.r_[: 2 * dm.dk, nloc + (1 if ker.config.sigma == 0 else dn) : nloc + dn]
        order = np.concatenate([cond, np.setdiff1d(np.arange(nloc + dn), cond)])
        at = np.argsort(order)
        E = np.zeros((dm.n_elements, nloc + dn, nloc + dn))
        for comp in ker.comp_cols:
            E[:, at[comp, None], at[comp]] = self.A_local
        B, vel, pres = self.B_local[ker.shape_class], at[:nloc], at[nloc:]
        E[:, pres[:, None], vel] = B
        E[:, vel[:, None], pres] = -B.transpose(0, 2, 1)
        dofs = np.hstack([dm.elem_vel, dm.n_velocity + dm.elem_pres])[:, order].astype(np.int32)
        return E, dofs, cond.size

    def reduced_blocks(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """The pinned ``K`` and the boundary-lifting columns ``L``, CSR.

        One scatter of ``element_layout`` (exact zeros dropped), built on the
        first call and kept.  ``K`` adds ``S2`` on the kept pressures; ``L``
        has every global row and the boundary traces as columns, so ``L @ g``
        couples each equation to the boundary data.
        """
        if self._blocks is None:
            dm, K_of = self.kernels.dofmap, self.K_of
            bnd = np.full(K_of.size, -1, dtype=np.int32)  # column in the lift
            bnd[dm.boundary_dofs] = np.arange(dm.boundary_dofs.size)
            E, dofs, _ = self.element_layout()
            k, b = K_of[dofs], bnd[dofs]
            K = _scatter(E, k, k, (K_of.max() + 1,) * 2)
            t = np.flatnonzero((b >= 0).any(axis=1))  # the elements on the boundary
            lift = _scatter(E[t], dofs[t], b[t], (K_of.size, dm.boundary_dofs.size))
            del E
            if self.S2.nnz:  # on the kept pressures, where the layout has no entry
                S2 = self.S2.tocoo()
                i, j = (K_of[dm.n_velocity + ij][:, None] for ij in (S2.row, S2.col))
                K = K + _scatter(S2.data[:, None, None], i, j, K.shape)
            self._blocks = (K, lift)
        return self._blocks

    def operator(self):
        """The pinned ``K`` and the right-hand side of the current data.

        The right-hand side is formed on every call from ``rhs_vel`` and the
        boundary data.  The equation dropped with the pinned pressure DOF, the
        sum of the constant-mode rows, says that g has no net outward flux; a
        ``ValueError`` is raised when that fails by more than ``COMPAT_TOL``.
        """
        if self.dirichlet_values is None:
            raise ValueError("apply_dirichlet must run before forming the operator")
        if self.mean_vector is None:
            raise ValueError("constrain_system must run before forming the operator")
        K, lift = self.reduced_blocks()
        dm = self.kernels.dofmap
        rhs = -(lift @ self.dirichlet_values)
        flux = -rhs[dm.n_velocity + dm.elem_pres[:, 0]]
        if abs(flux.sum()) > COMPAT_TOL * np.abs(flux).sum():
            raise ValueError(f"boundary data g has net outward flux {flux.sum():.3e}, not 0")
        rhs[: dm.n_velocity] += self.rhs_vel
        return K, rhs[self.K_of >= 0]

    def expand(self, x: np.ndarray):
        """Full velocity and pressure vectors of a solution of ``operator()``.

        The boundary traces take ``dirichlet_values`` and the pinned pressure
        DOF 0, then every element's constant mode is shifted by one value so
        that ``mean_vector @ pres`` is 0.  Both vectors are views of one new
        array, so a kept state does not hold x.
        """
        dm = self.kernels.dofmap
        full = np.zeros(self.K_of.size)
        full[self.K_of >= 0] = x
        vel, pres = full[: dm.n_velocity], full[dm.n_velocity :]
        vel[dm.boundary_dofs] = self.dirichlet_values
        const = dm.elem_pres[:, 0]
        pres[const] -= (self.mean_vector @ pres) / self.mean_vector[const].sum()
        return vel, pres


def build_saddle_system(kernels: ElementKernels, beta, tau: float | None = None) -> SaddleSystem:
    """Form the element matrices and the pinned numbering; ``rhs_vel`` starts at zero.

    With ``tau``, ``rho/tau`` times the mass enters the velocity element sum
    (a backward-Euler step).  The caller sets ``rhs_vel`` (for instance from
    ``assemble_load``) before forming the operator.
    """
    dm = kernels.dofmap
    kept = np.ones(dm.n_velocity + dm.n_pressure, dtype=bool)
    kept[dm.boundary_dofs] = kept[dm.n_velocity + dm.elem_pres[0, 0]] = False
    return SaddleSystem(
        kernels=kernels,
        A_local=_velocity_local(kernels, beta, tau),
        B_local=_divergence_local(kernels),
        S2=assemble_bilinear("s2", kernels),
        K_of=np.where(kept, np.cumsum(kept) - 1, -1).astype(np.int32),
        rhs_vel=np.zeros(dm.n_velocity),
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
