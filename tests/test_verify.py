import numpy as np
import pytest

from dataclasses import replace

from gwgflow import verify
from gwgflow.config import SpaceConfig
from gwgflow.localops import (
    _CLASS_TABLES,
    ElementKernels,
    _project_pressure_values,
    project_velocity,
)
from gwgflow.mesh import build_uniform_triangulation
from gwgflow.problems import manufactured_problem
from gwgflow.solver import DiscreteSolution, solve_steady
from gwgflow.verify import (
    check_weak_identities,
    energy_seminorm,
    estimate_coercivity,
    estimate_infsup,
    evaluate_errors,
    kernel_min_eigenvalue,
)
from test_localops import _jittered_mesh, _renumbered_mesh, _two_sizes_mesh


def _projection_errors(mesh, cfg):
    """Errors of the state that holds exactly the projections of ex1's u, p."""
    prob = manufactured_problem("steady_oseen_ex1")
    system = solve_steady(mesh, cfg, prob).system
    ker = system.kernels
    projected = DiscreteSolution(
        velocity_vector=ker.dofmap.velocity_vector(*project_velocity(ker, prob.u, 0.0)),
        pressure_vector=_project_pressure_values(ker, prob.p(*ker.qxy, 0.0)).reshape(-1),
        time=0.0,
        system=system,
    )
    return evaluate_errors(projected, prob)


def test_error_energy_zero_for_projection(mesh4, element_tuple):
    assert _projection_errors(mesh4, SpaceConfig(*element_tuple)).energy < 1e-12


def test_error_l2_zero_for_projection(mesh4, element_tuple):
    report = _projection_errors(mesh4, SpaceConfig(*element_tuple))
    assert report.l2_velocity_proj < 1e-14
    assert report.l2_pressure_proj < 1e-14


def test_evaluate_errors_rejects_nonfinite_exact_fields(mesh4, config_low):
    prob = manufactured_problem("steady_oseen_ex1")
    sol = solve_steady(mesh4, config_low, prob)
    nan_u = lambda x, y, t: np.full(np.shape(x) + (2,), np.nan)
    nan_p = lambda x, y, t: np.full(np.shape(x), np.nan)
    with pytest.raises(ValueError, match="exact velocity"):
        evaluate_errors(sol, replace(prob, u=nan_u))
    with pytest.raises(ValueError, match="exact pressure"):
        evaluate_errors(sol, replace(prob, p=nan_p))


def test_weak_identities_pass(mesh4, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    report = check_weak_identities(ElementKernels(mesh4, cfg), trials=100, seed=0)
    assert report.passed
    assert report.max_residual_identity1 <= 1e-11
    assert report.max_residual_identity2 <= 1e-11


@pytest.mark.parametrize("trials", [0, -3])
def test_weak_identities_reject_no_trials(mesh4, config_low, trials):
    # no trial tests nothing, so it must not report a pass
    with pytest.raises(ValueError, match="trials"):
        check_weak_identities(ElementKernels(mesh4, config_low), trials=trials)


def test_weak_identities_constant_field_trivial(mesh4, config_low):
    # identity 2 with constant w: both sides vanish since grad w = 0 and
    # the projection reproduces constants
    ker = ElementKernels(mesh4, config_low)
    dm = ker.dofmap
    interior, traces = project_velocity(
        ker, lambda x, y: np.stack([np.full_like(x, 2.0), np.full_like(y, -1.0)], axis=-1)
    )
    vec = dm.velocity_vector(interior, traces)
    vals = np.einsum("tqpa,tca->tpcq", ker.W, vec[dm.elem_vel[:, ker.comp_cols]])
    assert np.abs(vals).max() < 1e-13


def test_weak_identities_negative_control(mesh4, element_tuple):
    # corrupting the sign of the boundary correction, the delta part of the
    # weak-gradient table that the check reads, must be flagged
    cfg = SpaceConfig(*element_tuple)
    ker = ElementKernels(mesh4, cfg)
    ker.W = ker.W - 2 * np.matmul(ker.Vl[:, None], ker.delta)
    report = check_weak_identities(ker, trials=5, seed=0)
    assert not report.passed
    assert report.max_residual_identity1 > 1e-6


def test_kernel_min_eigenvalue_positive(element_tuple):
    for cells in (4, 8):
        mesh = build_uniform_triangulation(cells)
        cfg = SpaceConfig(*element_tuple)
        lam = kernel_min_eigenvalue(ElementKernels(mesh, cfg))
        assert lam > 1e-10


def test_infsup_positive_and_stable(element_tuple):
    cfg = SpaceConfig(*element_tuple)
    vals = {}
    for cells in (4, 8, 16):
        mesh = build_uniform_triangulation(cells)
        vals[cells] = estimate_infsup(ElementKernels(mesh, cfg))
        assert vals[cells] > 0
    # non-degeneracy under refinement
    change = abs(vals[16] - vals[8]) / vals[8]
    assert change < 0.20


def test_infsup_refuses_more_pressure_dofs_than_the_dense_limit(mesh4, config_low, monkeypatch):
    # the estimate forms several dense npres x npres arrays, so it stops
    # before forming any of them above the limit; mesh4 P1 has 32
    monkeypatch.setattr(verify, "DENSE_EIG_LIMIT", 31)
    with pytest.raises(ValueError, match="dense 32 x 32 arrays: 32 pressure DOFs exceed"):
        estimate_infsup(ElementKernels(mesh4, config_low))
    monkeypatch.setattr(verify, "DENSE_EIG_LIMIT", 32)
    assert estimate_infsup(ElementKernels(mesh4, config_low)) > 0


def test_coercivity_margin(mesh8, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("steady_oseen_ex1")
    # pure Stokes block is positive
    ker = ElementKernels(mesh8, cfg)
    zero_beta = lambda x, y: np.zeros(np.broadcast(x, y).shape + (2,))
    assert estimate_coercivity(ker, zero_beta) > 0
    # the benchmark convection field keeps the margin positive
    assert estimate_coercivity(ker, prob.beta) > 0


def test_coercivity_stress_probe_reports_value(mesh4, config_low):
    # scaled-up convection may push the margin negative; report, not assert
    prob = manufactured_problem("steady_oseen_ex1")

    def big_beta(x, y):
        return 1e3 * prob.beta(x, y)

    value = estimate_coercivity(ElementKernels(mesh4, config_low), big_beta)
    assert np.isfinite(value)


def test_evaluate_errors_report_fields(mesh4, config_low):
    prob = manufactured_problem("steady_oseen_ex1")
    sol = solve_steady(mesh4, config_low, prob)
    rep = evaluate_errors(sol, prob)
    for value in (
        rep.energy,
        rep.l2_velocity_proj,
        rep.l2_velocity_true,
        rep.l2_pressure_proj,
        rep.l2_pressure_true,
    ):
        assert value >= 0.0
    assert rep.l2_velocity_true >= rep.l2_velocity_proj - 1e-15


def test_evaluate_errors_evaluates_each_exact_field_once(mesh4, config_low):
    # the values at the volume points serve both the vs-exact norms and the
    # projections; u is evaluated once more, at the edge points, for Q_b u
    prob = manufactured_problem("steady_oseen_ex1")
    sol = solve_steady(mesh4, config_low, prob)
    shapes = {"u": [], "p": []}

    def counted(name, f):
        def field(x, y, t):
            shapes[name].append(np.shape(x))
            return f(x, y, t)

        return field

    rep = evaluate_errors(
        sol, replace(prob, u=counted("u", prob.u), p=counted("p", prob.p))
    )
    volume = sol.system.kernels.qp.shape[:2]
    assert shapes["u"].count(volume) == 1
    assert len(shapes["u"]) == 2
    assert shapes["p"] == [volume]
    assert rep == evaluate_errors(sol, prob)


def test_energy_seminorm_matches_weak_gradient_table(mesh4, element_tuple):
    # the reference evaluates the weak gradient at the volume points, the
    # interior gradient Gk @ e_int plus the delta part Vl @ (delta @ e), on
    # meshes of two shape classes up to one class an element
    for mesh in (mesh4, _jittered_mesh(4), _renumbered_mesh(4), _two_sizes_mesh(2)):
        ker = ElementKernels(mesh, SpaceConfig(*element_tuple))
        vec = np.random.default_rng(3).uniform(-1, 1, ker.dofmap.n_velocity)
        e = vec[ker.dofmap.elem_vel[:, ker.comp_cols]]                 # (nT, 2, ncomp)
        coeff = np.einsum("tqai,tci->tcqa", ker.delta, e)
        grad = np.einsum("tpa,tcqa->tpcq", ker.Vl, coeff)
        grad += np.einsum("tpqi,tci->tpcq", ker.Gk, e[..., : ker.dk])
        ref = np.sqrt(
            np.einsum("tp,tpcq,tpcq->", ker.qw, grad, grad)
            + np.einsum("tca,tab,tcb->", e, ker.s1, e)
        )
        assert energy_seminorm(ker, vec) == pytest.approx(ref, rel=1e-12, abs=0)


def test_energy_seminorm_gathers_no_table(mesh4, element_tuple):
    # the norm reads the class matrices: it gathers no table to the
    # elements, and the error evaluation none of the weak-gradient tables
    ker = ElementKernels(mesh4, SpaceConfig(*element_tuple))
    energy_seminorm(ker, np.ones(ker.dofmap.n_velocity))
    assert not set(_CLASS_TABLES) & set(vars(ker))
    prob = manufactured_problem("steady_oseen_ex1")
    sol = solve_steady(mesh4, SpaceConfig(*element_tuple), prob)
    evaluate_errors(sol, prob)
    assert not {"W", "delta", "_G", "viscous", "s1"} & set(vars(sol.system.kernels))
