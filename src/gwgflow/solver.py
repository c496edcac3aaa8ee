"""Steady solves and backward-Euler time marching for the discrete scheme."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .assembly import (
    LinearSolveError,
    SaddleSystem,
    apply_dirichlet,
    assemble_bilinear,
    assemble_load,
    build_saddle_system,
    constrain_system,
)
from .config import SpaceConfig, require_integer
from .localops import ElementKernels, project_velocity
from .mesh import Mesh

RESIDUAL_TOL = 1e-10
MAX_TIME_STEPS = 10**7


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: ``n_steps`` steps of size ``tau`` up to ``t_final``."""

    tau: float
    n_steps: int
    t_final: float

    def __post_init__(self):
        require_integer("n_steps", self.n_steps)
        if not (self.tau > 0 and math.isfinite(self.tau)) or self.n_steps <= 0:
            raise ValueError(
                f"tau and n_steps must be finite and positive, got {self.tau}, {self.n_steps}"
            )
        if not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final}")
        if abs(self.n_steps * self.tau - self.t_final) > 1e-14 * max(1.0, self.t_final):
            raise ValueError("n_steps * tau must equal t_final")
        if self.n_steps > MAX_TIME_STEPS:
            raise ValueError(f"step count {self.n_steps} exceeds guard limit")

    @classmethod
    def from_tau(cls, t_final: float, tau: float) -> "TimeGrid":
        """The grid of ``round(t_final / tau)`` equal steps up to ``t_final``."""
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"tau must be finite and positive, got {tau}")
        ratio = t_final / tau
        if not (math.isfinite(ratio) and round(ratio) >= 1):
            raise ValueError(
                f"tau = {tau} gives no finite whole number of steps in t_final = {t_final}"
            )
        n = round(ratio)
        return cls(tau=t_final / n, n_steps=n, t_final=t_final)


@dataclass
class DiscreteSolution:
    """Velocity and zero-mean pressure DOF vectors at one time level.

    Both vectors are laid out by ``system.kernels.dofmap``; its
    ``split_velocity`` gives the interior and trace blocks of the velocity.
    """

    velocity_vector: np.ndarray
    pressure_vector: np.ndarray
    time: float
    system: SaddleSystem

    @property
    def pressure_mean(self) -> float:
        return float(self.system.mean_vector @ self.pressure_vector)


def linear_solve(system: SaddleSystem, load, traces, factor=None) -> np.ndarray:
    """Direct solve of ``K x = system.operator(load, traces)``, in ``system.K_dofs`` order.

    Every solve of an interior load goes through here, with the
    condensed factor of ``_factorize``, built here unless ``factor`` is
    given; a given ``factor`` must be one built from this system's
    ``reduced_blocks()``, or a ``ValueError`` is raised before it is used.
    The relative residual is checked on the full pinned ``K`` against
    ``RESIDUAL_TOL``.  A factor built here serves one right-hand side, so
    its products with ``K`` are ``system.apply``, summed from the element
    matrices; a given factor is reused, so they are products with the CSR
    ``system.matrix()``, scattered on the first such solve.  A solve
    through the null-space factor (``_NullSpaceLU``) that fails the check
    is not refined: the factor's ``schur`` becomes ``_threshold_pivot_lu``
    of the system's ``S``, for this and every later solve.  One step of
    iterative refinement is then applied if needed, and
    ``LinearSolveError``, naming the factors tried and the order of ``S``,
    is raised when the residual still fails the check, including when it
    is NaN; its message adds the mesh Peclet number (``SaddleSystem.peclet``)
    and the normwise backward error ``||K x - b||_inf / (||K||_inf ||x||_inf + ||b||_inf)``.
    """
    if factor is not None and factor.Dinv_stack is not system.reduced_blocks()[1]:
        raise ValueError("factor was not built from this system's reduced_blocks()")
    rhs = system.operator(load, traces)
    if factor is None:
        lu, apply = _factorize(system), system.apply
    else:
        lu, apply = factor, system.matrix().dot
    scale = max(np.linalg.norm(rhs), 1e-300)
    x = lu.solve(rhs)
    res = np.linalg.norm(apply(x) - rhs) / scale
    tried = "threshold pivoting"
    if not res <= RESIDUAL_TOL and isinstance(lu.schur, _NullSpaceLU):
        tried = f"the null-space factor R (order {lu.schur.R.c.size}) of S, then {tried}"
        lu.schur = _threshold_pivot_lu(system.reduced_blocks()[-1])
        x = lu.solve(rhs)
        res = np.linalg.norm(apply(x) - rhs) / scale
    if not res <= RESIDUAL_TOL:
        x = x + lu.solve(rhs - apply(x))
        res = np.linalg.norm(apply(x) - rhs) / scale
    if not res <= RESIDUAL_TOL:
        K = system.matrix()
        eta = np.abs(K @ x - rhs).max() / (spla.norm(K, np.inf) * np.abs(x).max()
                                           + np.abs(rhs).max())
        raise LinearSolveError(
            f"linear solve failed with the equilibrated LU of S (order {rhs.size - lu.nc}) "
            f"by {tried}: relative residual {res:.3e} > {RESIDUAL_TOL:.1e}, "
            f"mesh Peclet number {system.peclet:.1e}, normwise backward error {eta:.1e}"
        )
    return x


@dataclass
class _CondensedFactor:
    """Factor of the pinned ``K`` with every element-local unknown condensed out.

    The ``nc`` condensed unknowns lead ``K`` (see the ``assembly`` module
    docstring), so ``K = [[D, K_ck], [K_kc, K_kk]]`` split at ``nc``, with
    ``D`` block diagonal.  Only ``S = K_kk - K_kc D^-1 K_ck`` is solved
    with, by the ``schur`` factor: a ``_NullSpaceLU`` or a ``_ScaledLU``.
    The condensed blocks are kept as the two products a solve needs, both
    formed per element: ``Dinv_stack = [K_kc D^-1; D^-1]``, applied to the
    condensed part of the right-hand side before ``schur``, and ``Dinv_K_ck
    = D^-1 K_ck``, applied to its solution after.  ``solve`` takes and
    returns vectors of ``K``'s size.
    """

    nc: int
    Dinv_stack: sp.csc_matrix
    Dinv_K_ck: sp.csr_matrix
    schur: _NullSpaceLU | _ScaledLU

    def solve(self, r: np.ndarray) -> np.ndarray:
        y = self.Dinv_stack @ r[: self.nc]       # [K_kc D^-1 r_c; D^-1 r_c]
        m = y.size - self.nc
        x_k = self.schur.solve(r[self.nc :] - y[:m])
        return np.concatenate([y[m:] - self.Dinv_K_ck @ x_k, x_k])


def _factorize(system: SaddleSystem) -> _CondensedFactor:
    """Condensed factor of the pinned ``K`` (see ``_CondensedFactor``).

    The ``S`` of ``system.reduced_blocks()`` is solved with through its
    null space when ``_null_space_lu`` takes it: the P1 tuple with sigma =
    0, whose element flux rows ``B_local`` leave out the interior velocity,
    so that the kept pressures have a zero block in ``S``.  ``linear_solve``
    checks that factor on every solve and replaces it when it fails.  Every
    other ``S``, or one whose ``R`` meets an exactly zero pivot, gets
    ``_threshold_pivot_lu``: COLAMD with threshold pivoting.  A singular
    element block, a structurally singular ``S`` or a singular
    factorization raises ``LinearSolveError``.
    """
    *_, Dinv_stack, Dinv_K_ck, S = system.reduced_blocks()
    try:
        schur = _null_space_lu(system, S)
    except LinearSolveError:  # R is singular, or has an exactly zero pivot
        schur = None
    return _CondensedFactor(system.nc, Dinv_stack, Dinv_K_ck, schur or _threshold_pivot_lu(S))


@dataclass(frozen=True)
class _ScaledLU:
    """The LU of ``diag(r) A diag(c)``, solving with ``A``."""

    lu: spla.SuperLU
    r: np.ndarray
    c: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.c * self.lu.solve(self.r * b)


def _scaled_lu(A: sp.csc_matrix, **splu_keywords) -> _ScaledLU:
    """SuperLU's LU of ``A``, equilibrated as by LAPACK's ``dgeequb``.

    ``r`` scales each row of ``A`` by the inverse of its largest magnitude,
    and ``c`` each column of ``diag(r) A`` likewise, both rounded down to
    powers of two, so the scaling is exact and every column of ``diag(r) A
    diag(c)`` has its largest magnitude in [0.5, 1).  ``splu_keywords`` are
    the recipe's.  An empty row or column of ``A``, or a singular
    factorization, raises ``LinearSolveError``; it says when ``A`` is
    structurally singular.
    """
    n, counts = A.shape[0], np.diff(A.indptr)
    rowmax = np.zeros(n)
    np.maximum.at(rowmax, A.indices, np.abs(A.data))  # A holds no explicit zeros
    if not (rowmax.all() and counts.all()):
        raise LinearSolveError(
            f"structurally singular Schur complement: S (order {n}) has an empty row or column"
        )
    r = np.ldexp(1.0, -np.frexp(rowmax)[1])  # 2^-e for rowmax = m 2^e, 0.5 <= m < 1
    rs = A.data * r[A.indices]
    c = np.ldexp(1.0, -np.frexp(np.maximum.reduceat(np.abs(rs), A.indptr[:-1]))[1])
    # a copy that owns its arrays: splu sorts its input in place
    scaled = sp.csc_matrix((rs * np.repeat(c, counts), A.indices.copy(), A.indptr.copy()), A.shape)
    try:
        lu = spla.splu(scaled, **splu_keywords)
    except RuntimeError as exc:  # singular factorization, SuperLU reports pivot
        rank = csgraph.structural_rank(A)
        what = f"structurally singular, rank {rank}" if rank < n else "singular"
        raise LinearSolveError(f"sparse factorization failed for S (order {n}), {what}: "
                               f"{exc}") from exc
    return _ScaledLU(lu, r, c)


def _threshold_pivot_lu(S: sp.csc_matrix) -> _ScaledLU:
    """SuperLU's threshold-pivoted LU of ``S``, equilibrated.

    SuperLU factors ``diag(r) S diag(c)`` in a COLAMD order with threshold
    0.1 (UMFPACK's default, Davis, TOMS 30, 2004): there its diagonal
    pivots mostly stand, where on ``S`` they are outgrown and the row
    interchanges add fill.
    """
    return _scaled_lu(S, permc_spec="COLAMD", diag_pivot_thresh=0.1)


@dataclass(frozen=True)
class _NullSpaceLU:
    """Solves with ``S = [[S_tt, -B^T], [B, 0]]`` through the null space of ``B``.

    The unknowns are the ``nk`` free traces ``t`` and the kept constant
    pressures ``p``; ``B`` holds each element's net flux over its edges.
    ``Z`` spans ``ker B`` and ``N`` carries one unit flux across each tree
    edge (``_null_space_lu``), so for ``S [t; p] = [b_t; g]``, after
    Benzi, Golub and Liesen (Acta Numerica 14, 2005, section 6) and Arioli
    and Manzini (Commun. Numer. Meth. Engng 18, 2002):

    - ``t0 = N B_tree^-1 g`` meets the constraint ``B t0 = g``;
    - ``t = t0 + Z R^-1 Z^T (b_t - S_tt t0)``, with ``R = Z^T S_tt Z``;
    - ``p = B_tree^-T N^T (S_tt t - b_t)``.

    Each solve with ``B_tree = B N`` is one cumulative sum over the tree's
    preorder ``pre`` (``_element_tree``): ``t0 = ND @ [0, cumsum(g[pre])]``
    and ``p = cumsum(EA @ N^T (S_tt t - b_t))[lo]``, with ``-ND^T = EA N^T``.
    ``N^T S_tt t`` and ``N^T b_t`` cancel node by node before ``EA`` sums
    the nodes at each end of a subtree run.  ``R``, about half the order of
    ``S``, is the one matrix factored.  A solve takes four sparse products:
    with ``S_tt``, ``ZN_T = [Z^T; N^T]``, ``ZC = [Z; N^T S_tt Z]`` and
    ``EA``; ``B`` itself is not kept.
    """

    R: _ScaledLU
    S_tt: sp.csr_matrix
    ND: sp.csc_matrix
    ZN_T: sp.csr_matrix
    ZC: sp.csr_matrix
    EA: sp.csr_matrix
    pre: np.ndarray
    lo: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        nk, nz = self.S_tt.shape[0], self.R.c.size
        cs = np.zeros(self.ND.shape[1])
        np.cumsum(b[nk:][self.pre], out=cs[1:])
        t = self.ND @ cs                                  # t0
        w = self.ZN_T @ (b[:nk] - self.S_tt @ t)          # Z^T r, N^T r
        v = self.ZC @ self.R.solve(w[:nz])                # Z y, N^T S_tt Z y
        t += v[:nk]
        return np.concatenate([t, np.cumsum(self.EA @ (v[nk:] - w[nz:]))[self.lo]])


def _null_space_lu(system: SaddleSystem, S: sp.csc_matrix) -> _NullSpaceLU | None:
    """The null-space factor of the P1 ``S``, or None when ``S`` is not of its kind.

    It takes the tuples with one trace unknown per component and free edge
    (``nk`` in all, edge by edge), one pressure per element, weak
    divergence degree ``m = 0`` and sigma = 0, the P1 tuple among them.
    With ``m = 0`` the weak divergence has no interior term (the gradient
    of a constant is exactly 0), so the ``B_local`` row is exactly zero on
    the interior velocity and ``reduced_blocks`` gives ``S`` a zero
    kept-pressure block and ``S_tp = -S_pt^T``, ``S_pt`` being ``B``, the
    ``B_local`` entries on the free traces, bit for bit.  Kept pressure
    ``j`` is element ``j + 1``'s: element 0 holds the pinned one.  It also
    checks that ``B Z = 0``, with ``B`` read from ``S``, and that the tree
    gives ``B_tree`` opposite entries on each edge (``_element_tree``),
    both exactly.

    ``f_e`` is the owner's ``B`` row on edge ``e``'s two traces (the
    neighbour's, negated, when the owner is element 0).  ``Z`` has a
    tangential column ``(-f_y, f_x) / |f_e|`` per free edge, then a
    discrete stream-function column per interior vertex ``v``: ``+-f_e /
    |f_e|^2`` on each of its edges, ``+`` where the edge, counterclockwise
    in its owner, ends at ``v``, so every element's two edges at ``v``
    cancel.  ``N`` puts ``f_e / |f_e|^2`` on the edge that joins each
    element to its parent in a breadth-first tree of the elements rooted
    at element 0 (``_element_tree``).  ``ND = N diag(a) (E_hi - E_lo)``,
    where ``E_hi`` and ``E_lo`` pick entries ``hi`` and ``lo``, is ``-+a_j
    f_e / |f_e|^2`` on node ``j``'s edge in columns ``lo_j`` and ``hi_j``,
    and ``EA = (E_lo - E_hi)^T diag(a)`` is ``+-a_j`` in rows ``lo_j`` and
    ``hi_j`` of column ``j``.
    ``R = Z^T S_tt Z`` is factored by ``_scaled_lu`` in a symmetric
    minimum-degree order with static pivots (threshold 0); ``linear_solve``
    checks every solve.
    """
    ker, mesh = system.kernels, system.kernels.mesh
    if (ker.dj, ker.dn, ker.config.m, ker.config.sigma) != (1, 1, 0, 0):
        return None
    free = np.flatnonzero(mesh.edge_elements[:, 1] >= 0)  # the edge of traces 2i, 2i + 1
    nfe, nT, m, two = free.size, mesh.n_elements, S.shape[0], mesh.edge_elements[free]
    nk, owner = 2 * nfe, two[:, 0]
    # side[i, s]: the B row of edge i's owner (s = 0) or neighbour on its traces
    slots = 2 * ker.dk + 2 * mesh.edge_local_index[free, :, None] + np.arange(2)
    side = system.B_local[ker.shape_class[two][..., None], 0, slots]
    side[two == 0] = 0.0  # element 0's pressure is pinned
    f = np.where((owner == 0)[:, None], -side[:, 1], side[:, 0])
    f2 = (f * f).sum(axis=1)
    normal = f / f2[:, None]
    tree = _element_tree(mesh, free, side, normal)
    if tree is None:
        return None
    a, pre, lo, hi, node_edge = tree

    interior = np.ones(len(mesh.vertices), dtype=bool)
    interior[mesh.edges[mesh.boundary_edges]] = False
    nz = nfe + interior.sum()
    vcol = np.where(interior, nfe + np.cumsum(interior) - 1, -1)
    le = mesh.edge_local_index[free, :1]
    ends = mesh.elements[owner[:, None], (le + [1, 0]) % 3]   # (end, start), counterclockwise
    # [Z^T; N^T]: rows are Z's columns, then the tree's nodes
    tree_traces, nodes = 2 * node_edge[:, None] + np.arange(2), np.arange(nT - 1)
    rows = np.concatenate([np.column_stack([np.arange(nfe), vcol[ends]]).repeat(2, axis=1),
                           nz + nodes.repeat(2)], axis=None)
    cols = np.concatenate([np.tile(np.arange(nk).reshape(nfe, 2), 3), tree_traces], axis=None)
    tangent = np.column_stack([-f[:, 1], f[:, 0]]) / np.sqrt(f2)[:, None]
    vals = np.concatenate([np.hstack([tangent, normal, -normal]), normal[node_edge]], axis=None)
    keep = (rows >= 0) & (vals != 0)
    ZN_T = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(nz + nT - 1, nk))
    Z = _csr_rows(ZN_T, 0, nz, nk).T
    start = S.indptr[nk]  # where the trace columns' entries end
    S_t = sp.csc_matrix((S.data[:start], S.indices[:start], S.indptr[: nk + 1]), shape=(m, nk))
    SZ = S_t @ Z    # [S_tt Z; B Z]
    if (SZ.indices >= nk).any():
        return None
    RC = _csr_rows(ZN_T, 0, nz + nT - 1, m) @ SZ   # [R; N^T S_tt Z]
    R = _scaled_lu(_csr_rows(RC, 0, nz, nz).tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    ZC = sp.vstack([Z.tocsr(), _csr_rows(RC, nz, nz + nT - 1, nz)], format="csr")
    EA = sp.csr_matrix((np.r_[a, -a], (np.r_[lo, hi], np.tile(nodes, 2))), shape=(nT, nT - 1))
    # each entry of ND is a single product a_j f_e / |f_e|^2
    ND = -(EA @ _csr_rows(ZN_T, nz, nz + nT - 1, nk)).T
    return _NullSpaceLU(R, _csr_rows(S_t.tocsr(), 0, nk, nk), ND, ZN_T, ZC, EA, pre, lo)


def _csr_rows(A: sp.csr_matrix, start: int, stop: int, n: int) -> sp.csr_matrix:
    """Rows ``start:stop`` of ``A`` as a CSR matrix with ``n`` columns, on ``A``'s arrays."""
    a, b = A.indptr[start], A.indptr[stop]
    return sp.csr_matrix((A.data[a:b], A.indices[a:b], A.indptr[start : stop + 1] - a),
                         shape=(stop - start, n))


def _element_tree(mesh, free, side, normal):
    """The breadth-first element tree of ``_null_space_lu``, as index arrays.

    Node ``j`` is element ``j + 1``, and the root is element 0.  Node ``j``
    is joined to its parent by free edge ``node_edge[j]`` (of the free edges
    ``free``), which carries column ``j`` of ``N``; so ``B_tree = B N`` has
    ``d_j`` in row ``j`` and ``-d_j`` in the parent's (none under the
    root), and ``B_tree^-1 g`` is ``a = 1 / d`` times the subtree sums of
    ``g``, ``B_tree^-T h`` the sums of ``a h`` along the paths to the root.
    In the preorder ``pre`` node ``j`` is at ``lo[j]`` and heads the run
    ``[lo[j], hi[j])`` of its subtree, so either sum is one cumulative sum.
    Returns ``(a, pre, lo, hi, node_edge)``, or None unless the parent's
    ``B`` row on each tree edge (``side``) gives the entry ``-d_j`` of
    ``B_tree`` exactly.  The subtree sizes come from pointer jumping
    (Wyllie's list ranking), in as many rounds as the tree's depth has
    binary digits.
    """
    nT, ee = mesh.n_elements, mesh.element_edges
    across = mesh.edge_elements[ee].sum(axis=2) - np.arange(nT)[:, None]  # -1: boundary
    inner = across >= 0
    graph = sp.csr_matrix((np.ones(inner.sum()), across[inner], np.r_[0, np.cumsum(inner.sum(1))]),
                          shape=(nT, nT))
    pred = csgraph.breadth_first_order(graph, 0)[1][1:]   # each node's parent element
    if (pred < 0).any():
        raise LinearSolveError("the elements are not connected by free edges")
    edge = ee[np.arange(1, nT), np.argmax(across[1:] == pred[:, None], axis=1)]
    at = np.full(mesh.n_edges, -1)
    at[free] = np.arange(free.size)
    node_edge = at[edge]
    # this node's row and its parent's on the tree edge's column of N
    mine = (np.arange(1, nT) != mesh.edge_elements[edge, 0]).astype(int)
    d = (side[node_edge, mine] * normal[node_edge]).sum(axis=1)
    o = (side[node_edge, 1 - mine] * normal[node_edge]).sum(axis=1)
    if (o != np.where(pred > 0, -d, 0.0)).any():
        return None
    size, up, jumps = np.ones(nT - 1, dtype=np.int64), pred, []
    while up.any():
        jumps.append(up)
        up = np.r_[0, up][up]
    for up in reversed(jumps):
        size += np.bincount(up, size, minlength=nT)[1:].astype(np.int64)
    kids = sp.csr_matrix((np.ones(nT - 1), np.argsort(pred, kind="stable") + 1,
                          np.r_[0, np.cumsum(np.bincount(pred, minlength=nT))]), shape=(nT, nT))
    pre = csgraph.depth_first_order(kids, 0, return_predecessors=False)[1:] - 1
    lo = np.empty(nT - 1, dtype=np.int64)
    lo[pre] = np.arange(nT - 1)
    return 1.0 / d, pre, lo, lo + size, node_edge


def solve_steady(mesh: Mesh, config: SpaceConfig, problem) -> DiscreteSolution:
    """Solve the steady scheme for a manufactured problem bundle."""
    _check_inputs(config, problem)
    ker = ElementKernels(mesh, config)
    system = build_saddle_system(ker, problem.beta)
    load = _at_time("forcing f", problem.f_time, assemble_load(ker, problem.f), 0.0)
    traces = _at_time("boundary data g", problem.g_time, apply_dirichlet(system, problem.g), 0.0)
    constrain_system(system)
    return _solution(system, linear_solve(system, load, traces), traces, 0.0)


def solve_evolutionary(
    mesh: Mesh,
    config: SpaceConfig,
    problem,
    grid: TimeGrid,
    *,
    keep_trajectory: bool = False,
):
    """March the fully-discrete scheme with backward Euler.

    The initial state is the weak projection of the initial velocity; each
    step passes the load and boundary traces of the new time level to
    ``linear_solve``, with the one system ``build_saddle_system`` built with
    ``tau`` (mass in the element sum), and a failed residual check on the
    pinned ``K`` raises ``LinearSolveError``.  The coefficients do not
    depend on time, so the boundary lift and the condensed factor of
    ``_factorize`` come from one element layout and are reused by every
    step, and so is the CSR ``K`` of the residual checks, which the first
    step scatters from that layout (``SaddleSystem.matrix``).  How that
    factor solves with ``S`` is chosen once, before the first step: through
    the null space of the flux rows for the P1 tuple with sigma = 0
    (``_NullSpaceLU``, whose one LU is that of ``R``), by the
    threshold-pivoted LU of ``S`` otherwise.  Every step's residual check
    guards it, and the first step whose check the null-space factor fails
    replaces it with the threshold-pivoted one for the rest of the march.
    The loads and boundary traces of the spatial terms of ``f`` and ``g``
    are formed once too, and a step scales them by ``f_time(t)`` and
    ``g_time(t)`` (``_at_time``, which rejects non-finite coefficients); the
    right-hand side is one product with the lift, whose flux rows give the
    step's compatibility check, and the condensed solve is one sparse
    product on each side of the solve with ``S``.

    The mass form lives on the element-interior velocity block only, and
    the interiors lead the ``K_dofs`` numbering, so between steps only the
    interior part ``x[:n_interior]`` of the solution is carried; its mass
    term ``mass_II @ (u_I / tau)`` is added to the interior load.
    States are expanded to full vectors only when they are returned.
    Returns the solution at the final time, or, when ``keep_trajectory`` is
    set, every step's, all holding the one system.
    """
    _check_inputs(config, problem)
    ker = ElementKernels(mesh, config)
    system = build_saddle_system(ker, problem.beta, grid.tau)
    constrain_system(system)
    lu = _factorize(system)

    nI = ker.dofmap.n_interior
    mass_II = assemble_bilinear("mass", ker)[:nI, :nI]
    loads, boundary = assemble_load(ker, problem.f), apply_dirichlet(system, problem.g)
    u_I = project_velocity(ker, problem.g2)[0].reshape(-1)

    trajectory = []
    for step in range(1, grid.n_steps + 1):
        t = step * grid.tau
        load = _at_time("forcing f", problem.f_time, loads, t)
        load += mass_II @ (u_I / grid.tau)
        traces = _at_time("boundary data g", problem.g_time, boundary, t)
        x = linear_solve(system, load, traces, lu)
        u_I = x[:nI]
        if keep_trajectory:
            trajectory.append(_solution(system, x, traces, t))

    return trajectory if keep_trajectory else _solution(system, x, traces, t)


def _at_time(name: str, time_coefficients, terms: np.ndarray, t: float) -> np.ndarray:
    """``time_coefficients(t) @ terms``; a ``ValueError`` unless the coefficients are K finite."""
    a = np.asarray(time_coefficients(t), dtype=float)
    if a.shape != terms.shape[:1] or not np.isfinite(a).all():
        raise ValueError(f"{name} has time coefficients {a} at t = {t:.6g}, "
                         f"not {len(terms)} finite values")
    return a @ terms


def _check_inputs(config: SpaceConfig, problem) -> None:
    """Reject an incompatible element tuple or a problem built for other mu/rho.

    ``Problem.mu``/``rho`` fix the forcing, so a mismatch with the config
    would silently solve a different problem.
    """
    config.validate_solver_compatibility()
    if (problem.mu, problem.rho) != (config.mu, config.rho):
        raise ValueError(
            f"problem {problem.name!r} was built for mu={problem.mu}, rho={problem.rho}, "
            f"but the config has mu={config.mu}, rho={config.rho}"
        )


def _solution(system: SaddleSystem, x, traces, time: float) -> DiscreteSolution:
    return DiscreteSolution(*system.expand(x, traces), time, system)
