"""Steady solves and backward-Euler time marching for the discrete scheme."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def linear_solve(system: SaddleSystem, factor=None) -> np.ndarray:
    """Direct solve of ``system.operator()``, in the numbering ``system.K_dofs``.

    Every solve, steady or time step, goes through here, with the
    condensed factor of ``_factorize`` (built here unless ``factor`` is
    given); it and ``K`` come from one element layout.  The relative
    residual is checked on ``K`` against ``RESIDUAL_TOL``; one step of
    iterative refinement is applied if needed, and ``LinearSolveError`` is
    raised when the residual still fails the check, including when it is NaN.
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

    The ``nc`` condensed unknowns lead ``K`` (see the ``assembly`` module
    docstring), so ``K = [[D, K_ck], [K_kc, K_kk]]`` split at ``nc``, with
    ``D`` block diagonal.  SuperLU factors only ``S = K_kk - K_kc D^-1 K_ck``.
    The condensed blocks are kept as the two products a solve needs, both
    formed per element: ``Dinv_stack = [K_kc D^-1; D^-1]``, applied to the
    condensed part of the right-hand side before SuperLU, and ``Dinv_K_ck =
    D^-1 K_ck``, applied to its solution after.  ``solve`` takes and returns
    vectors of ``K``'s size.
    """

    nc: int
    Dinv_stack: sp.csc_matrix
    Dinv_K_ck: sp.csr_matrix
    lu: spla.SuperLU

    def solve(self, r: np.ndarray) -> np.ndarray:
        y = self.Dinv_stack @ r[: self.nc]       # [K_kc D^-1 r_c; D^-1 r_c]
        m = y.size - self.nc
        x_k = self.lu.solve(r[self.nc :] - y[:m])
        return np.concatenate([y[m:] - self.Dinv_K_ck @ x_k, x_k])


def _factorize(system: SaddleSystem) -> _CondensedFactor:
    """Condensed factor of the pinned ``K`` (see ``_CondensedFactor``).

    SuperLU factors the ``S`` of ``system.reduced_blocks()``; a singular
    element block or a singular ``S`` raises ``LinearSolveError``.
    """
    *_, Dinv_stack, Dinv_K_ck, S = system.reduced_blocks()
    try:
        lu = spla.splu(S)
    except RuntimeError as exc:  # singular factorization, SuperLU reports pivot
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    return _CondensedFactor(system.nc, Dinv_stack, Dinv_K_ck, lu)


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
    do not depend on time, so ``K``, its boundary lift and the condensed
    factor of ``_factorize`` come from one element layout and are reused by
    every step.  The per-mesh step data are built once too: ``f`` and ``g``
    are evaluated at the kernels' read-only ``qxy`` and ``boundary_xy`` (the
    forcing's cache hits them by identity), the right-hand side is one
    product with the lift, whose flux rows give the compatibility check, and
    the condensed solve is one sparse product on each side of SuperLU.

    The mass form lives on the element-interior velocity block only, and
    the interiors lead the ``K_dofs`` numbering, so between steps only the
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
