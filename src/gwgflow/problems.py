"""Manufactured-solution registry.

Each problem bundles an exact velocity/pressure pair with the matching
convection field and the forcing derived from the strong form

    rho * u_t - mu * lap(u) + rho * (beta . grad) u + grad p = f,

so discretization errors can be measured exactly.  All fields are numpy
vectorized: scalars map (x, y[, t]) -> array, vector fields return the
components stacked in a trailing axis.

The forcing is stated as a short sum ``f(x, y, t) = sum_k a_k(t) F_k(x, y)``:
``Problem.f`` gives the spatial terms ``F_k``, stacked in the axis before the
components, and ``Problem.f_time`` the coefficients ``a_k(t)``, so the forcing
at ``t`` is ``f_time(t) @ f(x, y)``; ``Problem.g`` and ``g_time`` state the
boundary values of ``u`` so.  By default a field has one constant term, as in
the steady problems; ex2 has ``f = exp(-t) F1 + sin(t) F2`` and ``g = exp(-t)
u(x, y, 0)``.  A solver forms the load and the boundary traces of each term
once per mesh and only scales them per time step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROBLEM_NAMES = ("steady_oseen_ex1", "evolutionary_oseen_ex2", "stokes_patch")


def _constant(t):
    """The coefficient of a one-term field that does not change in time."""
    return np.ones(1)


@dataclass(frozen=True)
class Problem:
    """Evaluable manufactured-solution bundle."""

    name: str
    u: callable          # exact velocity (x, y, t) -> (..., 2)
    p: callable          # exact zero-mean pressure (x, y, t) -> (...)
    beta: callable       # convection field (x, y) -> (..., 2)
    f: callable          # forcing's spatial terms (x, y) -> (..., K, 2)
    g: callable          # boundary data's spatial terms (x, y) -> (..., K, 2)
    g2: callable         # initial velocity (x, y) -> (..., 2)
    steady: bool
    mu: float = 1.0
    rho: float = 1.0
    f_time: callable = _constant   # forcing's time coefficients t -> (K,)
    g_time: callable = _constant   # boundary data's time coefficients t -> (K,)


def _beta_standard(x, y):
    return np.stack([-x + np.sin(x) * np.sin(y), np.cos(x) * np.cos(y)], axis=-1)


def _poly_velocity(x, y):
    return np.stack([x**2 * y, -x * y**2], axis=-1)


def _steady_ex1(mu: float, rho: float) -> Problem:
    def u(x, y, t=0.0):
        return _poly_velocity(x, y)

    def p(x, y, t=0.0):
        return (2 * x - 1.0) * (2 * y - 1.0) + 0.0 * x

    def f(x, y):
        b1, b2 = np.moveaxis(_beta_standard(x, y), -1, 0)
        f1 = -mu * 2 * y + rho * (b1 * 2 * x * y + b2 * x**2) + 2 * (2 * y - 1.0)
        f2 = mu * 2 * x + rho * (-b1 * y**2 - b2 * 2 * x * y) + 2 * (2 * x - 1.0)
        return np.stack([f1, f2], axis=-1)[..., None, :]

    return Problem(
        name="steady_oseen_ex1",
        u=u,
        p=p,
        beta=_beta_standard,
        f=f,
        g=lambda x, y: u(x, y)[..., None, :],
        g2=lambda x, y: u(x, y, 0.0),
        steady=True,
        mu=mu,
        rho=rho,
    )


def _evolutionary_ex2(mu: float, rho: float) -> Problem:
    def u(x, y, t):
        return np.exp(-t) * _poly_velocity(x, y)

    def p(x, y, t):
        return np.sin(t) * (2 * x - 1.0) * (2 * y - 1.0) + 0.0 * x

    def f(x, y):
        """``F1`` and ``F2`` of ``f = exp(-t) F1 + sin(t) F2``, (..., 2, 2)."""
        b1, b2 = np.moveaxis(_beta_standard(x, y), -1, 0)
        F1 = np.stack(
            [
                -rho * x**2 * y - mu * 2 * y + rho * (b1 * 2 * x * y + b2 * x**2),
                rho * x * y**2 + mu * 2 * x + rho * (-b1 * y**2 - b2 * 2 * x * y),
            ],
            axis=-1,
        )
        F2 = np.stack([2 * (2 * y - 1.0), 2 * (2 * x - 1.0)], axis=-1)
        return np.stack([F1, F2], axis=-2)

    return Problem(
        name="evolutionary_oseen_ex2",
        u=u,
        p=p,
        beta=_beta_standard,
        f=f,
        f_time=lambda t: np.array([np.exp(-t), np.sin(t)]),
        g=lambda x, y: _poly_velocity(x, y)[..., None, :],
        g_time=lambda t: np.array([np.exp(-t)]),
        g2=lambda x, y: _poly_velocity(x, y),
        steady=False,
        mu=mu,
        rho=rho,
    )


def _stokes_patch(mu: float, rho: float) -> Problem:
    def u(x, y, t=0.0):
        return np.stack([y + 0.0 * x, x + 0.0 * y], axis=-1)

    def zero_scalar(x, y, t=0.0):
        return np.zeros(np.broadcast(x, y).shape)

    def zero_vector(x, y, t=0.0):
        return np.zeros(np.broadcast(x, y).shape + (2,))

    return Problem(
        name="stokes_patch",
        u=u,
        p=zero_scalar,
        beta=lambda x, y: zero_vector(x, y),
        f=lambda x, y: zero_vector(x, y)[..., None, :],
        g=lambda x, y: u(x, y)[..., None, :],
        g2=lambda x, y: u(x, y, 0.0),
        steady=True,
        mu=mu,
        rho=rho,
    )


_BUILDERS = {
    "steady_oseen_ex1": _steady_ex1,
    "evolutionary_oseen_ex2": _evolutionary_ex2,
    "stokes_patch": _stokes_patch,
}


def manufactured_problem(name: str, mu: float = 1.0, rho: float = 1.0) -> Problem:
    """Look up a manufactured problem; ``mu``/``rho`` enter the forcing."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {', '.join(PROBLEM_NAMES)}"
        ) from None
    return builder(mu, rho)
