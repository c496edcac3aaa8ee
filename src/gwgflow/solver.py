"""Steady solves and backward-Euler time marching for the discrete scheme."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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
    ``system.matrix()``, scattered on the first such solve.  A
    static-pivot solve (``schur.rows`` set) that fails the check is not
    refined: the factor's ``schur`` becomes ``_threshold_pivot_lu`` of the
    system's ``S``, for this and every later solve.  One step of iterative
    refinement is then applied if needed, and ``LinearSolveError``, naming
    the pivoting tried and the order of ``S``, is raised when the residual
    still fails the check, including when it is NaN.
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
    pivoting = "threshold pivoting"
    if not res <= RESIDUAL_TOL and lu.schur.rows is not None:
        lu.schur = _threshold_pivot_lu(system.reduced_blocks()[-1])
        pivoting = "static pivots, then threshold pivoting"
        x = lu.solve(rhs)
        res = np.linalg.norm(apply(x) - rhs) / scale
    if not res <= RESIDUAL_TOL:
        x = x + lu.solve(rhs - apply(x))
        res = np.linalg.norm(apply(x) - rhs) / scale
    if not res <= RESIDUAL_TOL:
        raise LinearSolveError(
            f"linear solve failed with the equilibrated LU of S (order {rhs.size - lu.nc}) "
            f"by {pivoting}: relative residual {res:.3e} > {RESIDUAL_TOL:.1e}"
        )
    return x


@dataclass
class _CondensedFactor:
    """Factor of the pinned ``K`` with every element-local unknown condensed out.

    The ``nc`` condensed unknowns lead ``K`` (see the ``assembly`` module
    docstring), so ``K = [[D, K_ck], [K_kc, K_kk]]`` split at ``nc``, with
    ``D`` block diagonal.  Only ``S = K_kk - K_kc D^-1 K_ck`` is factored,
    as the ``_ScaledLU`` ``schur``.  The condensed blocks are kept as the
    two products a solve needs, both formed per element: ``Dinv_stack =
    [K_kc D^-1; D^-1]``, applied to the condensed part of the right-hand
    side before ``schur``, and ``Dinv_K_ck = D^-1 K_ck``, applied to its
    solution after.  ``solve`` takes and returns vectors of ``K``'s size.
    """

    nc: int
    Dinv_stack: sp.csc_matrix
    Dinv_K_ck: sp.csr_matrix
    schur: _ScaledLU

    def solve(self, r: np.ndarray) -> np.ndarray:
        y = self.Dinv_stack @ r[: self.nc]       # [K_kc D^-1 r_c; D^-1 r_c]
        m = y.size - self.nc
        x_k = self.schur.solve(r[self.nc :] - y[:m])
        return np.concatenate([y[m:] - self.Dinv_K_ck @ x_k, x_k])


def _factorize(system: SaddleSystem) -> _CondensedFactor:
    """Condensed factor of the pinned ``K`` (see ``_CondensedFactor``).

    The recipe for the ``S`` of ``system.reduced_blocks()`` is chosen from
    ``S`` itself; both factor ``S`` equilibrated by powers of two
    (``_scaled_lu``).  When ``S`` has a structurally zero diagonal entry
    (the kept pressures of the P1 tuples with sigma = 0) and each nonzero
    diagonal entry is the largest in magnitude in its column, it is
    ``_static_pivot_lu``: match, scale, order, factor; ``linear_solve``
    checks it on every solve and replaces it when it fails.  Otherwise, or
    when that factor meets an exactly zero pivot, it is
    ``_threshold_pivot_lu``: COLAMD with threshold pivoting.  A nonzero
    diagonal entry outgrown in its column marks a convection-dominated
    ``S`` (steady P1 at small mu): there the matching is slow and the
    static pivots grow.  Static pivoting is unstable on the sigma = 0
    tuples whose kept pressures have a nonzero diagonal, such as the P2
    tuple.  A singular element block, a structurally singular ``S`` or a
    singular factorization raises ``LinearSolveError``.
    """
    *_, Dinv_stack, Dinv_K_ck, S = system.reduced_blocks()
    d = np.abs(S.diagonal())
    schur = None
    if not d.all():
        colmax = abs(S).max(axis=0).toarray().ravel()
        if np.all((d == 0) | (d == colmax)):
            schur = _static_pivot_lu(S, colmax)
    return _CondensedFactor(system.nc, Dinv_stack, Dinv_K_ck, schur or _threshold_pivot_lu(S))


@dataclass(frozen=True)
class _ScaledLU:
    """The LU of ``diag(r) S[rows] diag(c)``, solving with ``S``; ``rows=None`` permutes none."""

    lu: spla.SuperLU
    rows: np.ndarray | None
    r: np.ndarray
    c: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.c * self.lu.solve(self.r * (b if self.rows is None else b[self.rows]))


def _scaled_lu(S: sp.csc_matrix, rows: np.ndarray | None, **splu_keywords) -> _ScaledLU:
    """SuperLU's LU of ``S[rows]``, equilibrated as by LAPACK's ``dgeequb``.

    ``r`` scales each row of ``S[rows]`` by the inverse of its largest
    magnitude, and ``c`` each column of ``diag(r) S[rows]`` likewise, both
    rounded down to powers of two, so the scaling is exact and every column
    of ``diag(r) S[rows] diag(c)`` has its largest magnitude in [0.5, 1).
    ``splu_keywords`` are the recipe's.  An empty row or column of ``S``,
    or a singular factorization, raises ``LinearSolveError``.
    """
    n, counts = S.shape[0], np.diff(S.indptr)
    rowmax = np.zeros(n)
    np.maximum.at(rowmax, S.indices, np.abs(S.data))  # S holds no explicit zeros
    if not (rowmax.all() and counts.all()):
        raise LinearSolveError(
            f"structurally singular Schur complement: S (order {n}) has an empty row or column"
        )
    r = np.ldexp(1.0, -np.frexp(rowmax)[1])  # 2^-e for rowmax = m 2^e, 0.5 <= m < 1
    rs = S.data * r[S.indices]
    c = np.ldexp(1.0, -np.frexp(np.maximum.reduceat(np.abs(rs), S.indptr[:-1]))[1])
    # a relabelled copy that owns its arrays: splu sorts its input in place
    indices = S.indices.copy() if rows is None else np.argsort(rows)[S.indices]
    scaled = sp.csc_matrix((rs * np.repeat(c, counts), indices, S.indptr.copy()), S.shape)
    try:
        lu = spla.splu(scaled, **splu_keywords)
    except RuntimeError as exc:  # singular factorization, SuperLU reports pivot
        raise LinearSolveError(f"sparse factorization failed for S (order {n}): {exc}") from exc
    return _ScaledLU(lu, rows, r if rows is None else r[rows], c)


def _threshold_pivot_lu(S: sp.csc_matrix) -> _ScaledLU:
    """SuperLU's threshold-pivoted LU of ``S``, equilibrated, with no rows permuted.

    SuperLU factors ``diag(r) S diag(c)`` in a COLAMD order with threshold
    0.1 (UMFPACK's default, Davis, TOMS 30, 2004): there its diagonal
    pivots mostly stand, where on ``S`` they are outgrown and the row
    interchanges add fill.
    """
    return _scaled_lu(S, None, permc_spec="COLAMD", diag_pivot_thresh=0.1)


def _static_pivot_lu(S: sp.csc_matrix, colmax: np.ndarray) -> _ScaledLU | None:
    """A static-pivot LU of ``S``, equilibrated, with its rows permuted by a matching.

    ``rows`` is a maximum-product matching of rows to columns (Duff and
    Koster, SIMAX 22, 2001), found as the minimum-weight full matching on
    ``log(colmax_j) - log|s_ij|``, ``colmax`` being the largest magnitude in
    each column, so every diagonal entry of ``S[rows]`` is large; the
    power-of-two scaling multiplies every matching's product alike, so it
    keeps that one.  SuperLU then orders ``diag(r) S[rows] diag(c)``
    symmetrically by minimum degree on ``A^T + A`` and keeps those diagonal
    pivots (threshold 0), as in SuperLU_DIST (Li and Demmel, TOMS 29,
    2003).  None when SuperLU finds an exactly zero pivot.  A structurally
    singular ``S``, with no full matching, raises ``LinearSolveError``.
    """
    mag = np.abs(S.data)  # S holds no explicit zeros
    colmax = np.repeat(colmax, np.diff(S.indptr))
    # the matching needs nonzero weights; a shift by 1 leaves its optimum alone
    cost = sp.csc_matrix((1.0 + np.log(colmax) - np.log(mag), S.indices, S.indptr), S.shape)
    try:  # row i of S is matched to column to_col[i], and becomes row to_col[i]
        _, to_col = min_weight_full_bipartite_matching(cost)
    except ValueError as exc:
        raise LinearSolveError(f"structurally singular Schur complement: {exc}") from exc
    try:
        return _scaled_lu(S, np.argsort(to_col), permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except LinearSolveError:  # an exactly zero pivot
        return None


def solve_steady(mesh: Mesh, config: SpaceConfig, problem) -> DiscreteSolution:
    """Solve the steady scheme for a manufactured problem bundle."""
    _check_inputs(config, problem)
    ker = ElementKernels(mesh, config)
    system = build_saddle_system(ker, problem.beta)
    load = assemble_load(ker, problem.f, 0.0)
    traces = apply_dirichlet(system, problem.g, time=0.0)
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
    step scatters from that layout (``SaddleSystem.matrix``).  That
    factor's LU of the equilibrated ``S`` is chosen once, before the first
    step: static pivots after a row matching for the P1 tuples with sigma
    = 0 whose ``S`` is not convection dominated, threshold pivoting
    otherwise.  Every step's residual check guards it, and the first step
    whose check the static factor fails replaces it with the
    threshold-pivoted one for the rest of the march.
    ``f`` and ``g`` are evaluated at the kernels' read-only ``qxy`` and
    ``boundary_xy`` (the forcing's cache hits them by identity), the
    right-hand side is one product with the lift, whose flux rows give the
    compatibility check, and the condensed solve is one sparse product on
    each side of the ``_ScaledLU`` solve of ``S``.

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
    u_I = project_velocity(ker, problem.g2)[0].reshape(-1)

    trajectory = []
    for step in range(1, grid.n_steps + 1):
        t = step * grid.tau
        load = assemble_load(ker, problem.f, t)
        load += mass_II @ (u_I / grid.tau)
        traces = apply_dirichlet(system, problem.g, t)
        x = linear_solve(system, load, traces, lu)
        u_I = x[:nI]
        if keep_trajectory:
            trajectory.append(_solution(system, x, traces, t))

    return trajectory if keep_trajectory else _solution(system, x, traces, t)


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
