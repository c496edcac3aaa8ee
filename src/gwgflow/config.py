"""Discretization configuration: polynomial degrees and scheme parameters."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass


def require_integer(what: str, value) -> int:
    """``value`` as an int, or a ``ValueError`` naming ``what`` if it is not integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def require_finite(what: str, value) -> float:
    """``value``, or a ``ValueError`` naming ``what`` if it is not a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class SpaceConfig:
    """Element tuple (k, j, l, m, n) plus scheme parameters.

    k : interior velocity degree, j : edge velocity degree,
    l : weak-gradient tensor degree, m : weak-divergence degree,
    n : pressure degree.  ``gamma``/``zeta`` weight the velocity stabilizer
    (per-element factor zeta * h_T**gamma), ``alpha``/``sigma`` the optional
    pressure-jump stabilizer (per-edge factor sigma * h_e**alpha).  The
    default gamma = -1 (penalty growing like 1/h_T) gives the optimal
    convergence orders; gamma is kept free for experimentation.

    Solver-facing configs must satisfy k-1 <= n <= max(m, k+1), and n <= j
    when sigma == 0.
    """

    k: int
    j: int
    l: int
    m: int
    n: int
    gamma: float = -1.0
    alpha: float = 1.0
    zeta: float = 1.0
    sigma: int = 0
    mu: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        for name in ("k", "j", "l", "m", "n"):
            value = require_integer(f"degree {name}", getattr(self, name))
            if value < 0:
                raise ValueError(f"degree {name} must be >= 0")
        for name in ("gamma", "alpha", "zeta", "mu", "rho"):
            require_finite(name, getattr(self, name))
        if not self.zeta > 0:
            raise ValueError("zeta must be positive")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")

    @property
    def degrees(self) -> tuple[int, int, int, int, int]:
        return (self.k, self.j, self.l, self.m, self.n)

    @property
    def s(self) -> int:
        """Degree bound min(j, l) shared by both weak-operator identities."""
        return min(self.j, self.l)

    @property
    def quad_order(self) -> int:
        """Default over-integration order for volume and edge quadrature."""
        return 2 * max(self.k, self.j, self.l, self.m, self.n) + 4

    def validate_solver_compatibility(self) -> None:
        """Check the degree compatibility range required by the solver."""
        lo, hi = self.k - 1, max(self.m, self.k + 1)
        if not lo <= self.n <= hi:
            raise ValueError(
                f"pressure degree n={self.n} outside compatibility range "
                f"[{lo}, {hi}] for (k, m) = ({self.k}, {self.m})"
            )
        if self.sigma == 0 and self.n > self.j:
            raise ValueError(
                f"n={self.n} > j={self.j} requires the pressure-jump "
                "stabilizer (sigma=1)"
            )
