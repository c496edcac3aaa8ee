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
    """Direct sparse solve of the reduced, pressure-pinned ``system.operator()``.

    Every solve, steady or time step, goes through here, with the
    condensed factor of ``_factorize`` (built here unless ``factor`` is
    given).  The relative residual is checked on the full pinned ``K``
    against ``RESIDUAL_TOL``; one step of iterative refinement is applied
    if needed, and ``LinearSolveError`` is raised when the residual still
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
    """Factor of the pinned ``K`` with the element interiors condensed out.

    ``K = [[D, K_Ic], [K_cI, K_cc]]``, where the interior block ``D`` is
    block diagonal, one ``2*dk`` square block per element.  ``D`` is
    inverted element by element and only the Schur complement
    ``S = K_cc - K_cI D^-1 K_Ic`` on the traces and pressures is factored
    by SuperLU.  ``K_cI D^-1``, formed for ``S`` anyway, is kept in place of
    ``K_cI``.  ``solve`` takes and returns vectors of ``K``'s size.
    """

    Dinv: sp.csr_matrix
    K_Ic: sp.csr_matrix
    K_cI_Dinv: sp.csr_matrix
    lu: spla.SuperLU

    def solve(self, r: np.ndarray) -> np.ndarray:
        nI = self.Dinv.shape[0]
        r_I = r[:nI]
        x_c = self.lu.solve(r[nI:] - self.K_cI_Dinv @ r_I)
        x_I = self.Dinv @ (r_I - self.K_Ic @ x_c)
        return np.concatenate([x_I, x_c])


def _factorize(system: SaddleSystem) -> _CondensedFactor:
    """Condensed factor of ``system.matrix()`` (see ``_CondensedFactor``).

    The matrix is the one ``operator()`` returns; it does not depend on the
    load or the boundary data, so no right-hand side is formed here.  The
    first ``dofmap.n_interior`` unknowns of ``K`` are the element
    interiors, contiguous per element.  A singular element block or a
    singular Schur complement raises ``LinearSolveError``.
    """
    K = system.matrix()
    dm = system.kernels.dofmap
    nI, nT = dm.n_interior, dm.n_elements
    b = nI // nT
    D = K[:nI, :nI].tocoo()
    blocks = np.zeros((nT, b, b))
    blocks[D.row // b, D.row % b, D.col % b] = D.data
    inv = _invert_blocks(blocks)
    # row r of D^-1 holds the b columns of its element's block
    cols = (np.arange(nI) // b * b)[:, None] + np.arange(b)
    Dinv = sp.csr_matrix(
        (inv.reshape(-1), cols.ravel(), np.arange(nI + 1) * b), shape=(nI, nI)
    )
    K_Ic = K[:nI, nI:].tocsr()
    K_cI_Dinv = K[nI:, :nI].tocsr() @ Dinv
    S = (K[nI:, nI:] - K_cI_Dinv @ K_Ic).tocsc()
    try:
        lu = spla.splu(S)
    except RuntimeError as exc:  # singular factorization, SuperLU reports pivot
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    return _CondensedFactor(Dinv, K_Ic, K_cI_Dinv, lu)


def _invert_blocks(blocks: np.ndarray) -> np.ndarray:
    """Batched inverse of the (nT, b, b) interior blocks, naming a singular one."""
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        for t, block in enumerate(blocks):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError:
                raise LinearSolveError(
                    f"interior block of element {t} is singular"
                ) from None
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
    step sets the load and boundary data of the new time level and solves
    the mass-augmented system through ``linear_solve``, whose residual check
    on the full pinned operator makes a failed step raise
    ``LinearSolveError`` instead of marching on.  The coefficients do not
    depend on time, so the condensed factor of ``_factorize`` (the
    element-interior inverses and the LU of the trace-pressure Schur
    complement) is built once, before the first step, and reused.

    The mass form lives on the element-interior velocity block only, and
    the interiors lead the reduced unknowns, so between steps only the
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
    system = build_saddle_system(ker, problem.beta)
    mass = assemble_bilinear("mass", ker)
    system.A = (system.A + mass / grid.tau).tocsr()
    constrain_system(system)
    lu = _factorize(system)

    nI = ker.dofmap.n_interior
    mass_II = mass[:nI, :nI]
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
