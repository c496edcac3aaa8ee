"""Steady solves and backward-Euler time marching for the discrete scheme."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
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


class LinearSolveError(RuntimeError):
    pass


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


def linear_solve(system: SaddleSystem, factor=None) -> np.ndarray:
    """Direct solve of ``system.operator()``, in the numbering ``system.K_of``.

    Every solve, steady or time step, goes through here, with the
    condensed factor of ``_factorize`` (built here unless ``factor`` is
    given).  The relative residual is checked on ``K`` against
    ``RESIDUAL_TOL``; one step of iterative refinement is applied if
    needed, and ``LinearSolveError`` is raised when the residual still
    fails the check, including when it is NaN.
    """
    K, rhs = system.operator()
    lu = factor if factor is not None else _factorize(system)
    x = lu.solve(rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    res = np.linalg.norm(K @ x - rhs) / scale
    if not res <= RESIDUAL_TOL:
        x = x + lu.solve(rhs - K @ x)
        res = np.linalg.norm(K @ x - rhs) / scale
    if not res <= RESIDUAL_TOL:
        raise LinearSolveError(
            f"linear solve failed: relative residual {res:.3e} > {RESIDUAL_TOL:.1e}"
        )
    return x


@dataclass(frozen=True)
class _CondensedFactor:
    """Factor of the pinned ``K`` with every element-local unknown condensed out.

    ``cond`` holds the ``K`` indices of the condensed unknowns (see the
    ``assembly`` module docstring), element by element, and ``kept`` the
    others.  Up to that permutation ``K = [[D, K_ck], [K_kc, K_kk]]``, ``D``
    block diagonal.  SuperLU factors only ``S = K_kk - K_kc D^-1 K_ck``;
    ``K_kc D^-1``, formed for ``S``, is kept in place of ``K_kc``.  ``solve``
    takes and returns vectors of ``K``'s size.
    """

    cond: np.ndarray
    kept: np.ndarray
    Dinv: sp.csr_matrix
    K_ck: sp.csr_matrix
    K_kc_Dinv: sp.csr_matrix
    lu: spla.SuperLU

    def solve(self, r: np.ndarray) -> np.ndarray:
        x = np.empty_like(r)
        r_c = r[self.cond]
        x[self.kept] = x_k = self.lu.solve(r[self.kept] - self.K_kc_Dinv @ r_c)
        x[self.cond] = self.Dinv @ (r_c - self.K_ck @ x_k)
        return x


def _factorize(system: SaddleSystem) -> _CondensedFactor:
    """Condensed factor of the pinned ``K`` (see ``_CondensedFactor``).

    Built from ``system.element_layout()`` through ``system.K_of``, not
    from ``K``: the rows and columns with no ``K`` index are zeroed, the
    condensed blocks are inverted in one batched call, and the local Schur
    complements on the traces and kept pressure modes are scattered once,
    with ``S2``.  A singular element block or a singular Schur complement
    raises ``LinearSolveError``.
    """
    nv, K_of = system.kernels.dofmap.n_velocity, system.K_of
    E, dofs, c = system.element_layout()
    # K index of every element unknown, and S index of every K index; -1 is dropped
    k, nT = K_of[dofs], len(dofs)
    is_kept = np.ones(K_of.max() + 2, dtype=bool)
    is_kept[k[:, :c]] = is_kept[-1] = False
    kept = np.flatnonzero(is_kept)
    S_of = np.full(is_kept.size, -1, dtype=np.int32)
    S_of[kept] = np.arange(kept.size)
    kS = S_of[k[:, c:]]
    off = kS < 0     # boundary traces and the pinned pressure: zeroed, dropped

    E[:, c:][off] = E[:, :, c:].transpose(0, 2, 1)[off] = 0.0
    Dinv, K_ck = _invert_blocks(E[:, :c, :c]), E[:, :c, c:]
    K_kc_Dinv = E[:, c:, :c] @ Dinv
    S_local = K_kc_Dinv @ K_ck
    np.subtract(E[:, c:, c:], S_local, out=S_local)

    # the solve's matrices, condensed unknown t*c + i being element t's i-th;
    # the element arrays are freed before S and its factor are allocated
    q = np.repeat(np.arange(nT * c, dtype=np.int32).reshape(nT, c), c, axis=0)
    kz, nk = np.maximum(kS, 0), kS.shape[1]
    kzc = np.repeat(kz, c, axis=0)
    solve = (k[:, :c].ravel(), kept, _csr(q, Dinv, nT * c), _csr(kzc, K_ck, kept.size))
    solve += (_csr(kzc, K_kc_Dinv.transpose(0, 2, 1), kept.size).T.tocsr(),)
    del E, Dinv, K_ck, K_kc_Dinv, q, kzc

    # zeroed rows and columns add zeros at index 0, dropped after the sum
    S2 = system.S2.tocoo()
    i2, j2 = S_of[K_of[nv + S2.row]], S_of[K_of[nv + S2.col]]
    rows = np.concatenate([np.repeat(kz, nk, axis=1).ravel(), np.maximum(i2, 0)])
    cols = np.concatenate([np.tile(kz, nk).ravel(), np.maximum(j2, 0)])
    vals = np.concatenate([S_local.ravel(), S2.data * (i2 >= 0) * (j2 >= 0)])
    S = sp.csc_matrix((vals, (rows, cols)), shape=(kept.size, kept.size))
    del S_local, rows, cols, vals
    S.eliminate_zeros()
    try:
        lu = spla.splu(S)
    except RuntimeError as exc:  # singular factorization, SuperLU reports pivot
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    return _CondensedFactor(*solve, lu)


def _csr(cols: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_matrix:
    """CSR matrix with ``vals[i, j]`` at ``(i, cols[i, j])``, exact zeros left out."""
    indptr = np.arange(0, cols.size + 1, cols.shape[1], dtype=np.int32)
    mat = sp.csr_matrix((vals.flatten(), cols.flatten(), indptr), shape=(cols.shape[0], n))
    mat.eliminate_zeros()
    return mat


def _invert_blocks(blocks: np.ndarray) -> np.ndarray:
    """Batched inverse of the (nT, b, b) condensed blocks, naming a singular one."""
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        for t, block in enumerate(blocks):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError:
                raise LinearSolveError(f"interior block of element {t} is singular") from None
        raise


def solve_steady(mesh: Mesh, config: SpaceConfig, problem) -> DiscreteSolution:
    """Solve the steady scheme for a manufactured problem bundle."""
    _check_inputs(config, problem)
    ker = ElementKernels(mesh, config)
    system = build_saddle_system(ker, problem.beta)
    system.rhs_vel = assemble_load(ker, problem.f, 0.0)
    apply_dirichlet(system, problem.g, time=0.0)
    constrain_system(system)
    return _solution(system, linear_solve(system), 0.0)


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
    step sets the load and boundary data of the new time level and solves,
    through ``linear_solve``, the system ``build_saddle_system`` built with
    ``tau`` (mass in the element sum), whose residual check on the pinned
    ``K`` makes a failed step raise ``LinearSolveError``.  The coefficients
    do not depend on time, so ``K``, its boundary-lifting columns and the
    condensed factor of ``_factorize`` are built once and reused.

    The mass form lives on the element-interior velocity block only, and
    the interiors lead the ``K_of`` numbering, so between steps only the
    interior part ``x[:n_interior]`` of the solution is carried; its mass
    term ``mass_II @ (u_I / tau)`` is added to the load's interior rows.
    States are expanded to full vectors only when they are returned: the
    final one, or every one when ``keep_trajectory`` is set.  Each returned
    state holds its own shallow copy of the system (sharing the matrices and
    the factored operator) with that step's ``rhs_vel`` and
    ``dirichlet_values``.  Returns the solution at the final time, or the
    whole trajectory when ``keep_trajectory`` is set.
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
        system.rhs_vel = assemble_load(ker, problem.f, t)
        system.rhs_vel[:nI] += mass_II @ (u_I / grid.tau)
        apply_dirichlet(system, problem.g, t)
        x = linear_solve(system, lu)
        u_I = x[:nI]
        if keep_trajectory:
            trajectory.append(_solution(replace(system), x, t))

    return trajectory if keep_trajectory else _solution(system, x, t)


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


def _solution(system: SaddleSystem, x: np.ndarray, time: float) -> DiscreteSolution:
    return DiscreteSolution(*system.expand(x), time, system)
