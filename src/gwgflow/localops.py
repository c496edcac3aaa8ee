"""Element-local operators: projections, weak gradient and weak divergence.

Everything here is batched over elements.  ``ElementKernels`` precomputes,
for a mesh/config pair, the basis tables, trace projections, the two
weak-operator coefficient maps and the global DOF numbering; it is the one
discretization handle that the assembly, solver and error layers take.
Tables that do not depend on an element's position are built once per
shape class (``_shape_classes``); a uniform triangulation has two classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .basis import (
    dim_p,
    eval_edge_values,
    eval_tri_gradients,
    eval_tri_values,
)
from .config import SpaceConfig
from .mesh import Mesh
from .quadrature import edge_quadrature, map_to_physical, triangle_quadrature


def _solve_mass(mass: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(mass, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular local {what} mass matrix (degenerate element geometry)"
        ) from exc


@dataclass(frozen=True)
class DofMap:
    """Global numbering of velocity and pressure unknowns.

    Local velocity DOF layout on an element (size ``nloc = 2*dk + 6*dj``):
    interior component 0 (dk), interior component 1 (dk), then for each
    local edge the trace coefficients of component 0 (dj) and component 1
    (dj).  The per-component sublayout (size ``ncomp = dk + 3*dj``, columns
    ``ElementKernels.comp_cols``) is used for maps that act identically on
    both components.

    Globally, velocity DOFs are numbered element-interior blocks first, in
    element order, then per-edge trace blocks in edge order; pressure DOFs
    are per-element contiguous blocks of ``dn``.  A discrete solution is
    held as these two flat vectors.  ``_number_dofs`` fixes the layout;
    ``n_interior`` is where the interior block ends, and ``velocity_vector``,
    ``split_velocity`` and the solver's static condensation rely on it.
    Every interior DOF is free, so the interior block also leads the
    Dirichlet-reduced unknowns.
    """

    n_elements: int
    n_edges: int
    dk: int
    dj: int
    dn: int
    elem_vel: np.ndarray      # (nT, nloc) velocity dof of each local slot
    elem_pres: np.ndarray     # (nT, dn)
    boundary_dofs: np.ndarray  # trace dofs on boundary edges (ordered)
    free_dofs: np.ndarray

    @property
    def n_velocity(self) -> int:
        return 2 * (self.n_elements * self.dk + self.n_edges * self.dj)

    @property
    def n_pressure(self) -> int:
        return self.n_elements * self.dn

    @property
    def n_interior(self) -> int:
        """Interior velocity DOFs: ``2*dk`` per element, leading the velocity vector."""
        return self.n_elements * 2 * self.dk

    def velocity_vector(self, interior: np.ndarray, traces: np.ndarray) -> np.ndarray:
        """Global velocity vector from interior (nT, 2, dk) and trace (nE, 2, dj) blocks."""
        return np.concatenate([interior.reshape(-1), traces.reshape(-1)])

    def split_velocity(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a global velocity vector: interior (nT, 2, dk), traces (nE, 2, dj)."""
        ni = self.n_interior
        return (
            vec[:ni].reshape(self.n_elements, 2, self.dk),
            vec[ni:].reshape(self.n_edges, 2, self.dj),
        )


def _number_dofs(mesh: Mesh, dk: int, dj: int, dn: int) -> DofMap:
    nT, nE = mesh.n_elements, mesh.n_edges
    edge_base = 2 * nT * dk

    elems = np.arange(nT)
    elem_vel = np.empty((nT, 2 * dk + 6 * dj), dtype=np.int64)
    elem_vel[:, : 2 * dk] = elems[:, None] * 2 * dk + np.arange(2 * dk)
    for le in range(3):
        eids = mesh.element_edges[:, le]
        block = edge_base + eids[:, None] * 2 * dj + np.arange(2 * dj)
        elem_vel[:, 2 * dk + le * 2 * dj : 2 * dk + (le + 1) * 2 * dj] = block

    elem_pres = elems[:, None] * dn + np.arange(dn)

    bdofs = (
        edge_base
        + mesh.boundary_edges[:, None] * 2 * dj
        + np.arange(2 * dj)
    ).ravel()
    nvel = 2 * (nT * dk + nE * dj)
    mask = np.ones(nvel, dtype=bool)
    mask[bdofs] = False
    return DofMap(
        n_elements=nT,
        n_edges=nE,
        dk=dk,
        dj=dj,
        dn=dn,
        elem_vel=elem_vel,
        elem_pres=elem_pres,
        boundary_dofs=bdofs,
        free_dofs=np.flatnonzero(mask),
    )


def _shape_classes(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Shape class of every element, (nT,), and a representative element per class.

    Key: the centroid-relative vertices over ``h_elem`` and ``log(h_elem)``,
    rounded to 12 decimals, and whether each local edge runs along its
    stored ``mesh.edges`` direction (which fixes the trace basis on it).
    """
    h = mesh.h_elem
    rel = (mesh.vertices[mesh.elements] - mesh.centroids[:, None, :]) / h[:, None, None]
    along = mesh.edges[mesh.element_edges, 0] == mesh.elements
    key = np.column_stack([np.round(rel.reshape(-1, 6), 12), np.round(np.log(h), 12), along])
    # np.unique(key, axis=0) without its slow sort of row records
    order = np.lexsort(key.T[::-1])
    first = np.r_[True, np.any(key[order[1:]] != key[order[:-1]], axis=1)]
    shape_class = np.empty_like(order)
    shape_class[order] = np.cumsum(first) - 1
    return shape_class, order[first]


_CLASS_TABLES = """qw local _V _G wVk Mk Ml Mm Mn local_e _V_e normals elen E Gl_e Gm_e
delta W viscous div divergence s1""".split()


def _read_only_xy(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(x, y)`` views of the points (..., 2), which are frozen in place.

    ``pts`` itself is made read-only (it is copied only when it does not own
    its data), so callers pass a temporary they do not write again.
    """
    pts = np.require(pts, requirements="O")
    pts.flags.writeable = False
    return pts[..., 0], pts[..., 1]


def _prefix(table: str, dim: str) -> property:
    """One degree's columns of ``table``, whose monomials are ordered by total degree."""
    return property(lambda self: getattr(self, table)[..., : getattr(self, dim)])


class ElementKernels:
    """Precomputed discretization data for one mesh/config pair.

    The tables of ``_CLASS_TABLES`` are built on ``reps``, one element per
    shape class, and kept in ``classes``, where every per-class reader (the
    element matrices, the energy norm, the local projections) reads them.
    Read on the kernels, ``table`` is ``classes.table[shape_class]``, one
    entry per element, gathered the first time it is read.  Only ``qp``,
    ``edge_pts`` and ``dofmap`` are built per element.

    ``W`` (.., 2, np, ncomp), the weak gradient of every component-local
    shape function (derivative q, point, DOF), the unit ``viscous`` matrix
    ``(grad_w phi_j, grad_w phi_i)`` and ``s1`` (with ``zeta * h_T**gamma``),
    both (.., ncomp, ncomp), act on each velocity component alone and
    identically: on component c, through the local DOFs ``comp_cols[c]``.
    ``divergence`` is ``(div_w phi_j, q_i)`` on the full layout, (.., dn, nloc).

    The points at which fields are evaluated are read-only and owned here:
    ``qxy``, the ``(x, y)`` views of ``qp``, ``edge_xy``, those of
    ``edge_pts``, and ``boundary_xy``, those of the boundary edges' points;
    every evaluation shares them, so a field cannot write them.
    """

    Vk, Vl, Vm, Vn = (_prefix("_V", d) for d in ("dk", "dl", "dm", "dn"))
    Vk_e, Vl_e, Vm_e, Vn_e = (_prefix("_V_e", d) for d in ("dk", "dl", "dm", "dn"))
    Gk, Gm = _prefix("_G", "dk"), _prefix("_G", "dm")     # (nT, np, 2, d)

    def __init__(self, mesh: Mesh, config: SpaceConfig, quad_order: int | None = None):
        self.mesh = mesh
        self.config = config
        order = config.quad_order if quad_order is None else quad_order

        k, j, l, m, n = config.degrees
        self.dk, self.dj = dim_p(k), j + 1
        self.dl, self.dm, self.dn = dim_p(l), dim_p(m), dim_p(n)
        self.ncomp = self.dk + 3 * self.dj
        self.nloc = 2 * self.ncomp

        # local-layout columns of each velocity component
        cols = np.empty((2, self.ncomp), dtype=np.int64)
        for c in range(2):
            cols[c, : self.dk] = c * self.dk + np.arange(self.dk)
            for le in range(3):
                start = 2 * self.dk + le * 2 * self.dj + c * self.dj
                cols[c, self.dk + le * self.dj : self.dk + (le + 1) * self.dj] = (
                    start + np.arange(self.dj)
                )
        self.comp_cols = cols
        self.dofmap = _number_dofs(mesh, self.dk, self.dj, self.dn)

        self.shape_class, self.reps = _shape_classes(mesh)
        self.tri_rule = triangle_quadrature(order)
        self.edge_rule = edge_quadrature(order)

        self._build_volume_tables(k, l, m, n)
        self._build_edge_tables(k, l, m, n)
        self._build_weak_operators()
        self._build_stabilizer()
        self.classes = SimpleNamespace(**{name: self.__dict__.pop(name) for name in _CLASS_TABLES})

    def __getattr__(self, name):
        if name not in _CLASS_TABLES:
            raise AttributeError(f"'ElementKernels' object has no attribute {name!r}")
        table = getattr(self.classes, name)[self.shape_class]
        setattr(self, name, table)
        return table

    # -- construction -------------------------------------------------------

    def _build_volume_tables(self, k, l, m, n):
        mesh, rule, r = self.mesh, self.tri_rule, self.reps
        self.qxy = _read_only_xy(map_to_physical(rule, mesh.vertices[mesh.elements]))
        self.qp = self.qxy[0].base                                       # (nT, np, 2)
        self.qw = rule.weights[None, :] * (2.0 * mesh.areas[r, None])

        self.local = local = (self.qp[r] - mesh.centroids[r, None, :]) / mesh.h_elem[r, None, None]
        self._V = eval_tri_values(max(k, l, m, n), local)
        self._G = eval_tri_gradients(max(k, m), local, mesh.h_elem[r, None])

        w = self.qw
        self.wVk = w[..., None] * self.Vk                # (nT, np, dk)
        self.Mk = np.einsum("tp,tpi,tpj->tij", w, self.Vk, self.Vk)
        self.Ml = np.einsum("tp,tpi,tpj->tij", w, self.Vl, self.Vl)
        self.Mm = np.einsum("tp,tpi,tpj->tij", w, self.Vm, self.Vm)
        self.Mn = np.einsum("tp,tpi,tpj->tij", w, self.Vn, self.Vn)

    def _build_edge_tables(self, k, l, m, n):
        mesh, config, r = self.mesh, self.config, self.reps
        s, ew = self.edge_rule.points, self.edge_rule.weights
        self.edge_w = ew

        va = mesh.vertices[mesh.edges[:, 0]]
        vb = mesh.vertices[mesh.edges[:, 1]]
        self.edge_xy = _read_only_xy(va[:, None, :] + s[None, :, None] * (vb - va)[:, None, :])
        self.edge_pts = self.edge_xy[0].base                         # (nE, nq, 2)
        self.boundary_xy = _read_only_xy(self.edge_pts[mesh.boundary_edges])

        self.Qj = eval_edge_values(config.j, s)                     # (nq, dj)
        self.Mhat = np.einsum("q,qa,qb->ab", ew, self.Qj, self.Qj)  # (dj, dj)
        # (nq, dj) map from values at the edge points to Q_b coefficients,
        # (ew * Qj) @ Mhat^-1; the edge-length factor cancels
        self.edge_projector = _solve_mass(self.Mhat.T, (ew[:, None] * self.Qj).T, "edge").T

        eids = mesh.element_edges[r]                                 # (nC, 3)
        pts = self.edge_pts[eids]                                    # (nC, 3, nq, 2)
        local = (pts - mesh.centroids[r, None, None, :]) / mesh.h_elem[r, None, None, None]
        self.local_e = local
        self._V_e = eval_tri_values(max(k, l, m, n), local)

        self.normals = mesh.edge_normals[eids] * mesh.element_edge_sign[r, :, None]
        self.elen = mesh.h_edge[eids]                                # (nT, 3)

        # trace projection Q_b of interior basis, per element edge (dj x dk);
        # the edge-length factor cancels between mass and moment
        rhs = np.einsum("q,qa,tEqi->tEai", ew, self.Qj, self.Vk_e)
        self.E = _solve_mass(self.Mhat, rhs, "edge")

        # physical edge moments <q_a, p_i>_e of the volume bases
        self.Gl_e = self.elen[..., None, None] * np.einsum(
            "q,qa,tEqi->tEai", ew, self.Qj, self.Vl_e
        )
        self.Gm_e = self.elen[..., None, None] * np.einsum(
            "q,qa,tEqi->tEai", ew, self.Qj, self.Vm_e
        )

    def _build_weak_operators(self):
        dk, dj, dl, dm = self.dk, self.dj, self.dl, self.dm
        nC = self.reps.size
        ncomp = self.ncomp

        # delta_w right-hand side, identical for both velocity components:
        # rows = tensor column q and target basis, columns = component-local DOFs
        rhs = np.zeros((nC, 2, dl, ncomp))
        for le in range(3):
            nq_ = self.normals[:, le]                    # (nC, 2)
            G = self.Gl_e[:, le]                         # (nC, dj, dl)
            GE = np.einsum("tai,tak->tik", G, self.E[:, le])  # (nC, dl, dk)
            sl = slice(dk + le * dj, dk + (le + 1) * dj)
            for q in range(2):
                rhs[:, q, :, sl] += nq_[:, q, None, None] * G.transpose(0, 2, 1)
                rhs[:, q, :, :dk] -= nq_[:, q, None, None] * GE
        self.delta = _solve_mass(self.Ml[:, None], rhs, "weak-gradient")

        # weak divergence map on the full local layout (dm x nloc)
        rhs_div = np.zeros((nC, 2, dm, ncomp))
        Am = np.einsum("tp,tpci,tpj->tcij", self.qw, self.Gm, self.Vk)
        rhs_div[:, :, :, :dk] = -Am
        for le in range(3):
            block = np.einsum(
                "tc,tai->tcia", self.normals[:, le], self.Gm_e[:, le]
            )
            rhs_div[:, :, :, dk + le * dj : dk + (le + 1) * dj] += block
        div_comp = _solve_mass(self.Mm[:, None], rhs_div, "weak-divergence")
        self.div = np.zeros((nC, dm, self.nloc))
        for c in range(2):
            self.div[:, :, self.comp_cols[c]] = div_comp[:, c]
        M_nm = np.einsum("tp,tpi,tpj->tij", self.qw, self.Vn, self.Vm)
        self.divergence = np.matmul(M_nm, self.div)

        # the interior-gradient part evaluated exactly, the delta part through
        # its P_l coefficients
        self.W = W = np.matmul(self.Vl[:, None], self.delta)
        W[..., :dk] += self.Gk.transpose(0, 2, 1, 3)
        wW = (W * self.qw[:, None, :, None]).reshape(nC, -1, ncomp)
        self.viscous = np.matmul(W.reshape(nC, -1, ncomp).transpose(0, 2, 1), wW)

    def _build_stabilizer(self):
        cfg = self.config
        dk, dj = self.dk, self.dj
        h = self.mesh.h_elem[self.reps]
        S = np.zeros((h.size, self.ncomp, self.ncomp))
        for le in range(3):
            Me = self.elen[:, le, None, None] * self.Mhat
            E = self.E[:, le]
            MeE = np.einsum("tab,tbi->tai", Me, E)
            cols = slice(dk + le * dj, dk + (le + 1) * dj)
            S[:, cols, cols] += Me
            S[:, cols, :dk] -= MeE
            S[:, :dk, cols] -= MeE.transpose(0, 2, 1)
            S[:, :dk, :dk] += np.einsum("tai,taj->tij", E, MeE)
        S *= (cfg.zeta * h**cfg.gamma)[:, None, None]
        self.s1 = S

    # -- evaluation ---------------------------------------------------------

    def interior_moments(self, vals: np.ndarray) -> np.ndarray:
        """Moments (v, phi_i)_T of values (..., nT, np, 2) at ``qp``, (..., nT, 2, dk)."""
        return np.matmul(vals.swapaxes(-1, -2), self.wVk)


# -- local L2 projections ---------------------------------------------------


def _eval_field(name: str, f, x, y, time=None) -> np.ndarray:
    """Values of a user field at the given points; rejects non-finite ones."""
    vals = np.asarray(f(x, y) if time is None else f(x, y, time), dtype=float)
    if not np.isfinite(vals).all():
        at = "" if time is None else f" at t = {time:.6g}"
        raise ValueError(f"{name} has non-finite values{at}")
    return vals


def _eval_terms(name: str, f, x, y) -> np.ndarray:
    """Values (K, ..., 2) of the K spatial terms ``f(x, y) -> (..., K, 2)`` at the points."""
    vals = _eval_field(name, f, x, y)
    if vals.shape[:-2] + vals.shape[-1:] != x.shape + (2,):
        raise ValueError(f"{name} has shape {vals.shape}, not {x.shape} + (K, 2)")
    return np.moveaxis(vals, -2, 0)


def _project_edges(kernels: ElementKernels, vals: np.ndarray) -> np.ndarray:
    """Q_b trace coefficients (..., ne, 2, dj) of vector values (..., ne, nq, 2) at edge points."""
    return np.matmul(vals.swapaxes(-1, -2), kernels.edge_projector)


def project_velocity(
    kernels: ElementKernels, f, time: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Project a vector field onto the weak space: (interior, traces).

    Returns interior coefficients (nT, 2, dk) and trace coefficients
    (nE, 2, dj); the field is evaluated as ``f(x, y[, t]) -> (..., 2)``.
    """
    vals = _eval_field("velocity field", f, *kernels.qxy, time)
    traces = _eval_field("velocity field", f, *kernels.edge_xy, time)
    return _project_interior(kernels, vals), _project_edges(kernels, traces)


def _project_interior(kernels: ElementKernels, vals: np.ndarray) -> np.ndarray:
    """Interior coefficients (nT, 2, dk) of Q_0 from values (nT, np, 2) at ``qp``."""
    inv = _solve_mass(kernels.classes.Mk, np.eye(kernels.dk), "projection")
    return np.matmul(kernels.interior_moments(vals), inv.transpose(0, 2, 1)[kernels.shape_class])


def _project_pressure_values(kernels: ElementKernels, vals: np.ndarray) -> np.ndarray:
    """Broken pressure coefficients (nT, dn) from values (nT, np) at ``qp``."""
    rhs = np.matmul((kernels.qw * vals)[:, None], kernels.Vn)
    inv = _solve_mass(kernels.classes.Mn, np.eye(kernels.dn), "pressure projection")
    return np.matmul(rhs, inv.transpose(0, 2, 1)[kernels.shape_class])[:, 0]


def project_boundary_traces(kernels: ElementKernels, g) -> np.ndarray:
    """Q_b of each term of ``g(x, y) -> (..., K, 2)`` on the boundary edges, (K, nb, 2, dj).

    Q_b is linear, so the traces at ``t`` are ``g_time(t) @`` these (``problems``).
    """
    return _project_edges(kernels, _eval_terms("boundary data g", g, *kernels.boundary_xy))
