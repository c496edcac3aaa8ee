"""Manufactured-solution registry.

Each problem bundles an exact velocity/pressure pair with the matching
convection field and the forcing derived from the strong form

    rho * u_t - mu * lap(u) + rho * (beta . grad) u + grad p = f,

so discretization errors can be measured exactly.  All fields are numpy
vectorized: scalars map (x, y[, t]) -> array, vector fields return the
components stacked in a trailing axis.

The evolutionary forcing separates as ``exp(-t) F1(x, y) + sin(t) F2(x, y)``.
Its problem keeps ``F1`` and ``F2`` for the last point set it was called
on, so a time march, which evaluates f at the same quadrature points every
step, forms the convection field's ``sin``/``cos`` once.  The cache holds one
point set per problem instance.  It hits only when the call passes the very
``x`` and ``y`` of the last call and neither these arrays nor the arrays
they view can be written (``ElementKernels.qxy`` are such), so points that
may have changed since are always recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROBLEM_NAMES = ("steady_oseen_ex1", "evolutionary_oseen_ex2", "stokes_patch")


@dataclass(frozen=True)
class Problem:
    """Evaluable manufactured-solution bundle."""

    name: str
    u: callable          # exact velocity (x, y, t) -> (..., 2)
    p: callable          # exact zero-mean pressure (x, y, t) -> (...)
    beta: callable       # convection field (x, y) -> (..., 2)
    f: callable          # forcing (x, y, t) -> (..., 2)
    g: callable          # boundary velocity (trace of u)
    g2: callable         # initial velocity (x, y) -> (..., 2)
    steady: bool
    mu: float = 1.0
    rho: float = 1.0


def _read_only(a) -> bool:
    """Whether ``a`` is an array that neither it nor the array it views lets write."""
    base = getattr(a, "base", None)
    return (
        isinstance(a, np.ndarray) and not a.flags.writeable
        and (base is None or isinstance(base, np.ndarray) and not base.flags.writeable)
    )


def _beta_standard(x, y):
    return np.stack([-x + np.sin(x) * np.sin(y), np.cos(x) * np.cos(y)], axis=-1)


def _poly_velocity(x, y):
    return np.stack([x**2 * y, -x * y**2], axis=-1)


def _steady_ex1(mu: float, rho: float) -> Problem:
    def u(x, y, t=0.0):
        return _poly_velocity(x, y)

    def p(x, y, t=0.0):
        return (2 * x - 1.0) * (2 * y - 1.0) + 0.0 * x

    def f(x, y, t=0.0):
        b1, b2 = np.moveaxis(_beta_standard(x, y), -1, 0)
        f1 = -mu * 2 * y + rho * (b1 * 2 * x * y + b2 * x**2) + 2 * (2 * y - 1.0)
        f2 = mu * 2 * x + rho * (-b1 * y**2 - b2 * 2 * x * y) + 2 * (2 * x - 1.0)
        return np.stack([f1, f2], axis=-1)

    return Problem(
        name="steady_oseen_ex1",
        u=u,
        p=p,
        beta=_beta_standard,
        f=f,
        g=u,
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

    cache = None  # (x, y, F1, F2) of the last points

    def spatial_factors(x, y):
        """``(F1, F2)`` with ``f = exp(-t) F1 + sin(t) F2``, kept for the last points.

        A hit needs the very ``x`` and ``y`` of the last call, read-only then
        and now; the entry is one tuple, read and replaced whole, so threads
        sharing the problem never pair one point set with another's factors.
        """
        nonlocal cache
        entry, frozen = cache, _read_only(x) and _read_only(y)
        if frozen and entry is not None and x is entry[0] and y is entry[1]:
            return entry[2], entry[3]
        points = (x, y) if frozen else (None, None)
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        b1, b2 = np.moveaxis(_beta_standard(x, y), -1, 0)
        F1 = np.stack(
            [
                -rho * x**2 * y - mu * 2 * y + rho * (b1 * 2 * x * y + b2 * x**2),
                rho * x * y**2 + mu * 2 * x + rho * (-b1 * y**2 - b2 * 2 * x * y),
            ],
            axis=-1,
        )
        F2 = np.stack([2 * (2 * y - 1.0), 2 * (2 * x - 1.0)], axis=-1)
        cache = (*points, F1, F2)
        return F1, F2

    def f(x, y, t):
        F1, F2 = spatial_factors(x, y)
        vals = F1 * np.exp(-t)
        vals += np.sin(t) * F2
        return vals

    return Problem(
        name="evolutionary_oseen_ex2",
        u=u,
        p=p,
        beta=_beta_standard,
        f=f,
        g=u,
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
        f=zero_vector,
        g=u,
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
