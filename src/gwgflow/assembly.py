"""Global assembly of the saddle-point system.

Every routine takes the ``ElementKernels`` of one mesh/config pair, whose
``dofmap`` fixes the global numbering.  A solve works on one pinned
numbering, ``SaddleSystem.K_dofs``, of the free velocity DOFs and every
pressure DOF but ``elem_pres[0, 0]`` (constants are the only pressure null
space); ``expand`` shifts the pressure to zero mean.  The ``nc`` unknowns
condensed element by element lead it: the interior velocity, then, when
sigma is 0, the ``dn - 1`` non-constant pressure modes of every element,
which then couple only to the element's own unknowns (with sigma = 1 the
jumps ``S2`` couple neighbouring pressures).  The free traces and the kept
pressures follow.  Each group is in global order.

Element matrices are the source, formed from the class tables of the
kernels, ``ElementKernels.classes``.  ``SaddleSystem.A_local`` is the
component-local velocity matrix, placed on both components: ``mu viscous
+ s1`` (with ``rho/tau mass`` for a backward-Euler step) per shape class
plus ``rho convection`` per element; ``B_local`` is the divergence matrix
of each shape class.  ``element_layout`` places both on every element's
unknowns, once per system: ``reduced_blocks`` scatters it into the
boundary-lifting columns, condenses it for the solver and keeps it.  The
pinned ``K`` has two products from that kept layout: ``apply`` sums the
element products, with no ``K`` built, and ``matrix`` scatters the CSR
``K`` once, for a caller that takes many products with it.  A system holds
no step data: ``operator`` takes the interior load and the boundary traces
``Q_b g``, and ``expand`` the traces, so one system serves every time step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .localops import ElementKernels, _eval_field, _eval_terms, project_boundary_traces

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
        return _scatter(ker.divergence, dm.elem_pres, dm.elem_vel, (dm.n_pressure, dm.n_velocity))
    if form == "mass":
        return _scatter_components(ker, config.rho * ker.Mk)
    if form == "s1":
        return _scatter_components(ker, ker.s1)
    if form == "viscous":
        return _scatter_components(ker, config.mu * ker.viscous)
    return _scatter_components(ker, config.rho * _convection_local(ker, beta)[0])


def assemble_velocity_block(kernels: ElementKernels, beta) -> sp.csr_matrix:
    """The velocity block ``mu viscous + rho convection + s1`` in one scatter."""
    return _scatter_components(kernels, _velocity_local(kernels, beta)[0])


def _velocity_local(ker: ElementKernels, beta, tau: float | None = None) -> tuple:
    """Component-local ``[rho/tau mass +] mu viscous + s1 + rho convection``.

    All but the convection are formed per shape class; (nT, ncomp, ncomp).
    Returned with the Peclet number of ``_convection_local``.
    """
    cfg, dk, c = ker.config, ker.dk, ker.classes
    local = cfg.mu * c.viscous + c.s1
    if tau is not None:
        local[:, :dk, :dk] += cfg.rho * c.Mk / tau
    local = local[ker.shape_class]
    convection, peclet = _convection_local(ker, beta)
    local[:, :dk] += cfg.rho * convection
    return local, peclet


def _convection_local(ker: ElementKernels, beta) -> tuple:
    """(beta . grad_w phi_j, phi_i) for the interior test functions, (nT, dk, ncomp).

    The form is linear in the ``np * 2`` values of beta at an element's
    points: ``sum_pq beta_q(x_p) wVk[p, i] W[q, p, j]``.  So each shape
    class contracts its elements' values with one (np * 2, dk * ncomp)
    tensor of ``wVk`` and ``W``, in one matrix product.  Returned with the
    largest mesh Peclet number ``max |beta| h_T / (2 mu)`` at those points.
    """
    bvals = _eval_field("convection field beta", beta, *ker.qxy)    # (nT, np, 2)
    wVk, W, nT = ker.classes.wVk, ker.classes.W, len(bvals)
    T = np.einsum("cpi,cqpj->cpqij", wVk, W).reshape(len(W), bvals[0].size, -1)
    bvals = bvals.reshape(nT, -1)
    bh2 = (bvals[:, ::2] ** 2 + bvals[:, 1::2] ** 2) * ker.mesh.h_elem[:, None] ** 2  # |beta h_T|^2
    local = np.empty((nT, T.shape[-1]))
    members = np.split(np.argsort(ker.shape_class), np.cumsum(np.bincount(ker.shape_class))[:-1])
    for T_c, at in zip(T, members):
        local[at] = bvals[at] @ T_c
    return local.reshape(nT, ker.dk, -1), float(np.sqrt(bh2.max()) / (2 * ker.config.mu))


def _assemble_s2(ker: ElementKernels) -> sp.csr_matrix:
    mesh, config, dm = ker.mesh, ker.config, ker.dofmap
    npres = dm.n_pressure
    if config.sigma == 0:
        return sp.csr_matrix((npres, npres))
    interior = np.flatnonzero(mesh.edge_elements[:, 1] >= 0)
    t1, t2 = mesh.edge_elements[interior].T
    le1, le2 = mesh.edge_local_index[interior].T
    V_e, sc, dn = ker.classes._V_e, ker.shape_class, ker.dn
    jump = np.concatenate([V_e[sc[t1], le1, :, :dn], -V_e[sc[t2], le2, :, :dn]], axis=2)
    he = mesh.h_edge[interior]
    wq = ker.edge_w[None, :] * he[:, None]       # physical edge measure
    scale = config.sigma * he**config.alpha
    local = scale[:, None, None] * np.einsum("eq,eqa,eqb->eab", wq, jump, jump)
    cols = np.concatenate([dm.elem_pres[t1], dm.elem_pres[t2]], axis=1)
    return _scatter(local, cols, cols, (npres, npres))


def assemble_load(kernels: ElementKernels, f) -> np.ndarray:
    """The loads (F_k, v0) of the forcing's spatial terms, (K, n_interior).

    ``f(x, y)`` gives the K terms as (..., K, 2); only the interior velocity
    tests them.  The load at time t is ``f_time(t) @`` this (``problems``).
    """
    terms = _eval_terms("forcing f", f, *kernels.qxy)
    return kernels.interior_moments(terms).reshape(len(terms), -1)


class LinearSolveError(RuntimeError):
    pass


def _kept_modes(kernels: ElementKernels) -> int:
    """How many leading pressure modes of an element are not condensed.

    With sigma = 0 nothing couples an element's non-constant pressure modes
    to another element, so only the constant mode stays; with sigma = 1 the
    jumps ``S2`` couple every mode to the neighbours', and all ``dn`` stay.
    """
    return 1 if kernels.config.sigma == 0 else kernels.dn


@dataclass
class SaddleSystem:
    """Element matrices and the pinned numbering of one mesh and config.

    ``A_local`` is (nT, ncomp, ncomp), ``B_local`` (nC, dn, nloc).  ``K_dofs``
    is the pinned numbering: the global index (pressures after velocities)
    of each unknown of ``K``, in ``K``'s order (see the module docstring),
    whose first ``nc`` unknowns are the condensed ones.
    """

    kernels: ElementKernels
    A_local: np.ndarray
    B_local: np.ndarray
    S2: sp.csr_matrix
    K_dofs: np.ndarray
    nc: int
    peclet: float   # the largest mesh Peclet number of beta (_convection_local)
    mean_vector: np.ndarray | None = None
    _blocks: tuple | None = field(default=None, repr=False)
    _layout: tuple | None = field(default=None, repr=False)
    _K: sp.csr_matrix | None = field(default=None, repr=False)

    def element_layout(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Every element's ``[[A, -B^T], [B, 0]]``, (nT, nloc+dn, nloc+dn).

        With the global index of each unknown (pressures after velocities)
        and the count ``c`` of condensed unknowns, which lead.  It is several
        times the size of ``A_local``, and ``reduced_blocks`` keeps it.
        """
        ker = self.kernels
        dm, nloc, dn = ker.dofmap, ker.nloc, ker.dn
        # element unknowns (velocity slots, pressure modes), the c condensed first
        cond = np.r_[: 2 * dm.dk, nloc + _kept_modes(ker) : nloc + dn]
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

    def reduced_blocks(self) -> tuple:
        """``(lift, Dinv_stack, Dinv_K_ck, S)`` from one ``element_layout``, kept.

        The lift is a scatter of the layout: ``lift @ g`` couples the
        boundary traces ``g`` to every row of the pinned ``K``, in ``K``
        order, and then to each element's constant pressure mode, the flux
        rows ``operator`` checks.  The rest condense the layout element by
        element.  Split at ``nc``, ``K = [[D, K_ck], [K_kc, K_kk]]`` with
        ``D`` block diagonal; the solver factors ``S = K_kk - K_kc D^-1
        K_ck`` (CSC, no stored zeros), indexed by ``K`` index minus ``nc``
        (``solver._factorize``).  The solver applies ``Dinv_stack = [K_kc
        D^-1; D^-1]`` before it and ``Dinv_K_ck = D^-1 K_ck`` after it, both
        formed per element.  The layout itself is kept too, with the rows and
        columns of the boundary traces and the pinned pressure zeroed, with
        its ``K`` indices and, when sigma = 1, ``S2`` in ``K`` order:
        ``apply`` and ``matrix`` take ``K`` from it.
        """
        if self._blocks is not None:
            return self._blocks
        dm, n, nc = self.kernels.dofmap, self.K_dofs.size, self.nc
        K_of = np.full(dm.n_velocity + dm.n_pressure, -1, dtype=np.int32)  # inverse of K_dofs
        K_of[self.K_dofs] = np.arange(n)
        bnd = np.full(K_of.size, -1, dtype=np.int32)  # column in the lift
        bnd[dm.boundary_dofs] = np.arange(dm.boundary_dofs.size)
        S2 = self.S2.tocoo()
        i2, j2 = (K_of[dm.n_velocity + ij][:, None] for ij in (S2.row, S2.col))
        E, dofs, c = self.element_layout()
        k, b = K_of[dofs], bnd[dofs]
        t = np.flatnonzero((b >= 0).any(axis=1))  # the elements on the boundary
        p0 = np.flatnonzero(dofs[0] == dm.n_velocity + dm.elem_pres[0, 0])  # constant mode
        Et, rows = E[t], np.concatenate([k[t], n + t[:, None]], axis=1)   # flux row n + t
        # scattered as its transpose, whose CSR is the lift's CSC
        lift = _scatter(np.concatenate([Et, Et[:, p0]], axis=1).transpose(0, 2, 1), b[t], rows,
                        (dm.boundary_dofs.size, n + dm.n_elements)).T

        # the c condensed unknowns of an element have K indices below nc, and
        # the S index of the others is their K index minus nc, negative if none
        kS, m = k[:, c:] - nc, n - nc
        off = kS < 0     # boundary traces and the pinned pressure: zeroed, dropped
        E[:, c:][off] = E[:, :, c:].transpose(0, 2, 1)[off] = 0.0
        Dinv, K_ck = _invert_condensed(E, c, self.kernels.dk), E[:, :c, c:]
        Dinv_K_ck = Dinv @ K_ck
        S_local = E[:, c:, c:] - E[:, c:, :c] @ Dinv_K_ck
        # the element rows put in K order; zeroed entries go to index 0, dropped
        row, kz = np.argsort(k[:, :c], axis=None), np.maximum(kS, 0)
        kzc, nk = np.repeat(kz, c, axis=0)[row], kz.shape[1]
        # column j of Dinv_stack holds the condensed unknown j's element column
        # of K_kc D^-1, then of D^-1: a CSR of the columns, transposed to CSC
        cols = np.concatenate([kzc, m + np.repeat(k[:, :c], c, axis=0)[row]], axis=1)
        vals = np.empty((len(E), c, nk + c))
        vals[..., nk:] = Dinv.transpose(0, 2, 1)
        np.matmul(vals[..., nk:], E[:, c:, :c].transpose(0, 2, 1), out=vals[..., :nk])
        Dinv_stack = _csr(cols, vals.reshape(nc, nk + c)[row], m + nc).T
        Dinv_K_ck = _csr(kzc, Dinv_K_ck.reshape(nc, nk)[row], m)
        del Et, Dinv, K_ck, cols, vals  # before S and its factor are allocated
        rows, cols = np.repeat(kz, nk, axis=1).ravel(), np.tile(kz, nk).ravel()
        S = sp.csc_matrix((S_local.ravel(), (rows, cols)), shape=(m, m))
        if S2.nnz:
            S = S + _scatter(S2.data[:, None, None], i2 - nc, j2 - nc, S.shape)
        S.eliminate_zeros()
        # S2 on the kept pressures, where the layout has no entry
        S2_K = _scatter(S2.data[:, None, None], i2, j2, (n, n)) if S2.nnz else None
        self._layout = (E, k, S2_K)
        self._blocks = (lift, Dinv_stack, Dinv_K_ck, S)
        return self._blocks

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``K @ x`` for the pinned ``K``, summed from the kept element layout.

        ``x`` is gathered onto every element's unknowns, those dropped from
        ``K`` (whose layout entries are zero) reading a zero, multiplied by
        the element matrices in one batched product, and the products are
        summed into ``K`` order by one ``np.bincount``; ``S2`` adds its own
        on the kept pressures.  No ``K`` is built, as in the element-by-element
        products of Hughes, Levit and Winget (CMAME 36, 1983): for one
        product this is several times cheaper than scattering ``K``.
        """
        self.reduced_blocks()
        E, k, S2 = self._layout
        n = self.K_dofs.size
        at = np.where(k < 0, n, k)  # dropped unknowns read, and sum into, slot n
        local = np.matmul(E, np.append(x, 0.0)[at][..., None])
        Kx = np.bincount(at.ravel(), local.ravel(), minlength=n + 1)[:n]
        return Kx if S2 is None else Kx + S2 @ x

    def matrix(self) -> sp.csr_matrix:
        """The pinned ``K`` (CSR, with ``S2`` on the kept pressures), scattered once and kept.

        For a caller that takes many products with one ``K``, such as the
        residual check of every step of a march: a CSR product is cheaper
        than ``apply``, once the scatter is paid.
        """
        if self._K is None:
            self.reduced_blocks()
            E, k, S2 = self._layout
            n = self.K_dofs.size
            K = _scatter(E, k, k, (n, n))
            self._K = K if S2 is None else K + S2
        return self._K

    def operator(self, load: np.ndarray, traces: np.ndarray) -> np.ndarray:
        """The right-hand side of the pinned ``K`` for one step's data.

        The interior ``load`` (a ``ValueError`` unless of length n_interior)
        is added to the interior rows that lead ``K``, and one product with
        the lift moves the boundary ``traces`` to the right-hand side.  The
        equation dropped with the pinned pressure DOF, the sum of the
        constant-mode rows, says that g has no net outward flux; a
        ``ValueError`` is raised when the lift's flux rows fail that by more
        than ``COMPAT_TOL``.  ``K`` itself is ``matrix()``, or ``apply(x)``.
        """
        nI, n = self.kernels.dofmap.n_interior, self.K_dofs.size
        if load.shape != (nI,):
            raise ValueError(f"load has shape {load.shape}, not the interior load's ({nI},)")
        lifted = self.reduced_blocks()[0] @ traces
        flux = lifted[n:]
        if abs(flux.sum()) > COMPAT_TOL * np.abs(flux).sum():
            raise ValueError(f"boundary data g has net outward flux {flux.sum():.3e}, not 0")
        rhs = -lifted[:n]
        rhs[:nI] += load
        return rhs

    def expand(self, x: np.ndarray, traces: np.ndarray):
        """Full velocity and pressure vectors of a solution of ``operator``.

        The boundary DOFs take the step's ``traces`` and the pinned pressure
        DOF 0, then every element's constant mode is shifted by one value so
        that ``mean_vector @ pres`` is 0.  Both vectors are views of one new
        array, so a kept state does not hold x.
        """
        if self.mean_vector is None:
            raise ValueError("expand needs mean_vector: call constrain_system(system) first")
        dm = self.kernels.dofmap
        full = np.zeros(dm.n_velocity + dm.n_pressure)
        full[self.K_dofs] = x
        vel, pres = full[: dm.n_velocity], full[dm.n_velocity :]
        vel[dm.boundary_dofs] = traces
        const = dm.elem_pres[:, 0]
        pres[const] -= (self.mean_vector @ pres) / self.mean_vector[const].sum()
        return vel, pres


def _csr(cols: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_matrix:
    """CSR matrix with ``vals[i, j]`` at ``(i, cols[i, j])``, exact zeros left out.

    The matrix takes over a contiguous ``vals`` (dropping the zeros in place),
    so callers pass a temporary; ``cols`` is copied.
    """
    indptr = np.arange(0, cols.size + 1, cols.shape[1], dtype=np.int32)
    mat = sp.csr_matrix((vals.ravel(), cols.flatten(), indptr), shape=(cols.shape[0], n))
    mat.eliminate_zeros()
    return mat


def _invert_condensed(E: np.ndarray, c: int, dk: int) -> np.ndarray:
    """Inverse of the leading (c, c) blocks of the layout ``E``, (nT, c, c).

    The first ``2 dk`` unknowns are the interior velocity, whose block is
    the component-local one on both components and nothing between them,
    so one (dk, dk) inverse serves both; the condensed pressure modes after
    them, if any, are eliminated through their Schur complement.
    """
    nv = 2 * dk
    P_inv = np.zeros((len(E), nv, nv))
    P_inv[:, :dk, :dk] = P_inv[:, dk:, dk:] = _invert_blocks(E[:, :dk, :dk])
    if c == nv:
        return P_inv
    Q, R = E[:, :nv, nv:c], E[:, nv:c, :nv]
    PQ, RP = P_inv @ Q, R @ P_inv
    Z_inv = _invert_blocks(E[:, nv:c, nv:c] - R @ PQ)
    PQZ = PQ @ Z_inv
    D_inv = np.empty((len(E), c, c))
    D_inv[:, :nv, :nv] = P_inv + PQZ @ RP
    D_inv[:, :nv, nv:] = -PQZ
    D_inv[:, nv:, :nv] = -Z_inv @ RP
    D_inv[:, nv:, nv:] = Z_inv
    return D_inv


def _invert_blocks(blocks: np.ndarray) -> np.ndarray:
    """Batched inverse of the (nT, b, b) condensed blocks, naming a singular one."""
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        for t, block in enumerate(blocks):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError:
                raise LinearSolveError(f"condensed block of element {t} is singular") from None
        raise


def build_saddle_system(kernels: ElementKernels, beta, tau: float | None = None) -> SaddleSystem:
    """Form the element matrices and the pinned numbering.

    With ``tau``, ``rho/tau`` times the mass enters the velocity element sum
    (a backward-Euler step).
    """
    dm, nv, nI = kernels.dofmap, kernels.dofmap.n_velocity, kernels.dofmap.n_interior
    modes = dm.elem_pres[:, _kept_modes(kernels) :]
    kept = np.ones(dm.n_pressure, dtype=bool)
    kept[modes] = kept[dm.elem_pres[0, 0]] = False
    A_local, peclet = _velocity_local(kernels, beta, tau)
    return SaddleSystem(
        kernels=kernels,
        A_local=A_local,
        B_local=kernels.classes.divergence,
        S2=assemble_bilinear("s2", kernels),
        K_dofs=np.r_[dm.free_dofs[:nI], nv + np.sort(modes, axis=None), dm.free_dofs[nI:],
                     nv + np.flatnonzero(kept)],
        nc=nI + modes.size,
        peclet=peclet,
    )


def apply_dirichlet(system: SaddleSystem, g) -> np.ndarray:
    """The traces ``Q_b`` of each term of ``g``, (K, n_boundary), in boundary-DOF order.

    A step's ``traces``, which ``operator`` lifts to the right-hand side and
    ``expand`` puts back, are ``g_time(t) @`` these: no reassembly.
    """
    terms = project_boundary_traces(system.kernels, g)
    return terms.reshape(len(terms), -1)


def constrain_system(system: SaddleSystem) -> SaddleSystem:
    """Record ``mean_vector``, with ``mean_vector @ p`` the integral of p."""
    ker = system.kernels
    mean = np.einsum("tp,tpi->ti", ker.qw, ker.Vn).reshape(-1)
    system.mean_vector = mean
    return system
