"""Comparison of two error reports up to roundoff.

A refactor that reorders floating-point sums moves every error norm by
roundoff in the discrete solution, and a small, superconvergent norm such
as ``l2_pressure_proj`` moves by a large share of its own value.  The bar
is therefore relative to the norm of the exact field that each error
measures, not to the error itself.
"""

from dataclasses import fields

import numpy as np

from gwgflow.localops import ElementKernels, _eval_field, project_velocity
from gwgflow.verify import ErrorReport, energy_seminorm

#: bound on a field's change, relative to the norm of the exact field
ROUNDOFF_RTOL = 1e-10


def exact_norms(kernels: ElementKernels, problem, time: float | None = None) -> dict:
    """Per ``ErrorReport`` field, the norm of the exact field it measures.

    The energy error is scaled by the energy seminorm of the projection of
    ``u``, the velocity errors by the L2 norm of ``u`` and the pressure
    errors by the L2 norm of ``p``.
    """
    ker = kernels
    x, y = ker.qp[..., 0], ker.qp[..., 1]
    u = _eval_field("exact velocity", problem.u, x, y, time)
    p = _eval_field("exact pressure", problem.p, x, y, time)
    l2u = float(np.sqrt(np.einsum("tp,tpc,tpc->", ker.qw, u, u)))
    l2p = float(np.sqrt(np.einsum("tp,tp,tp->", ker.qw, p, p)))
    q_u = ker.dofmap.velocity_vector(*project_velocity(ker, problem.u, time))
    energy = energy_seminorm(ker, q_u)
    return {
        "energy": energy,
        "l2_velocity_proj": l2u,
        "l2_velocity_true": l2u,
        "l2_pressure_proj": l2p,
        "l2_pressure_true": l2p,
    }


def assert_reports_close(
    got: ErrorReport, want: ErrorReport, norms: dict, rtol: float = ROUNDOFF_RTOL
) -> None:
    """Every field of ``got`` within ``rtol * norms[field]`` of ``want``."""
    for f in fields(ErrorReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert abs(a - b) <= rtol * norms[f.name], (
            f"{f.name}: {a!r} vs {b!r}, {abs(a - b) / norms[f.name]:.2e} of the exact norm"
        )
