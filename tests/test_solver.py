import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gwgflow import problems, solver
from gwgflow.assembly import (
    SaddleSystem,
    apply_dirichlet,
    assemble_bilinear,
    assemble_load,
    build_saddle_system,
    constrain_system,
)
from gwgflow.config import SpaceConfig
from gwgflow.localops import ElementKernels, project_velocity
from gwgflow.mesh import _build_topology, build_uniform_triangulation
from gwgflow.problems import manufactured_problem
from gwgflow.solver import (
    LinearSolveError,
    TimeGrid,
    _CondensedFactor,
    _factorize,
    linear_solve,
    solve_evolutionary,
    solve_steady,
)
from gwgflow.verify import evaluate_errors, incompressibility_residual
from reports import assert_reports_close, exact_norms
from test_localops import _jittered_mesh


def test_time_grid_validation():
    g = TimeGrid.from_tau(1.0, 1.0 / 16)
    assert g.tau == pytest.approx(1 / 16)
    g2 = TimeGrid.from_tau(1.0, 0.25)
    assert g2.n_steps == 4
    with pytest.raises(ValueError):
        TimeGrid(tau=0.3, n_steps=4, t_final=1.0)
    with pytest.raises(ValueError):
        TimeGrid(tau=-0.1, n_steps=4, t_final=-0.4)


@pytest.mark.parametrize(
    "tau, t_final",
    [(float("nan"), float("nan")), (float("inf"), float("inf")), (0.25, float("nan")),
     (0.25, float("inf"))],
)
def test_time_grid_built_directly_rejects_nonfinite_values(tau, t_final):
    with pytest.raises(ValueError, match="must be finite"):
        TimeGrid(tau=tau, n_steps=1, t_final=t_final)


@pytest.mark.parametrize("n_steps", [4.0, 4.5, "4", None])
def test_time_grid_rejects_non_integral_step_count(n_steps):
    # a float step count used to pass and fail later in the march's range()
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        TimeGrid(tau=0.25, n_steps=n_steps, t_final=1.0)
    assert TimeGrid(tau=0.25, n_steps=np.int64(4), t_final=1.0).n_steps == 4


@pytest.mark.parametrize("tau", [0.0, float("inf"), float("nan"), 2.0, 5.0])
def test_time_grid_rejects_bad_tau(tau):
    # zero, non-finite, or no whole step in t_final = 1
    with pytest.raises(ValueError, match="tau"):
        TimeGrid.from_tau(1.0, tau)


def test_problem_built_for_other_mu_rho_rejected(mesh4):
    # the forcing of a problem fixes mu and rho; a config with other values
    # would silently solve a different problem
    steady = manufactured_problem("steady_oseen_ex1")
    with pytest.raises(ValueError, match=r"mu=1\.0.*mu=0\.5"):
        solve_steady(mesh4, SpaceConfig(1, 0, 1, 0, 0, mu=0.5), steady)
    evolutionary = manufactured_problem("evolutionary_oseen_ex2", rho=2.0)
    with pytest.raises(ValueError, match=r"rho=2\.0.*rho=1\.0"):
        solve_evolutionary(
            mesh4, SpaceConfig(1, 0, 1, 0, 0), evolutionary, TimeGrid.from_tau(1.0, 0.5)
        )


def _steady_system(mesh, cfg, prob):
    # the system and its step data: the load and the boundary traces
    ker = ElementKernels(mesh, cfg)
    system = build_saddle_system(ker, prob.beta)
    step = (prob.f_time(0.0) @ assemble_load(ker, prob.f),
            prob.g_time(0.0) @ apply_dirichlet(system, prob.g))
    constrain_system(system)
    return system, step


def _backward_euler_system(mesh, cfg, prob, tau=0.1):
    # the mass-augmented system of solve_evolutionary, with the data of a
    # step at time tau from a state at rest
    ker = ElementKernels(mesh, cfg)
    system = build_saddle_system(ker, prob.beta, tau)
    step = (prob.f_time(tau) @ assemble_load(ker, prob.f),
            prob.g_time(tau) @ apply_dirichlet(system, prob.g))
    constrain_system(system)
    return system, step


def _system(kind, mesh, cfg):
    if kind == "steady":
        return _steady_system(mesh, cfg, manufactured_problem("steady_oseen_ex1"))
    return _backward_euler_system(mesh, cfg, manufactured_problem("evolutionary_oseen_ex2"))


def _assert_condensed_solve_equals_full_solve(system, step):
    rhs = system.operator(*step)
    full = spla.spsolve(system.matrix(), rhs)
    condensed = _factorize(system).solve(rhs)
    assert np.linalg.norm(condensed - full) <= 1e-9 * np.linalg.norm(full)
    assert np.linalg.norm(linear_solve(system, *step) - full) <= 1e-9 * np.linalg.norm(full)


@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_condensed_solve_equals_full_solve(mesh8, element_tuple, kind):
    _assert_condensed_solve_equals_full_solve(*_system(kind, mesh8, SpaceConfig(*element_tuple)))


@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
@pytest.mark.parametrize("case", ["jittered", "sigma1"])
def test_condensed_solve_equals_full_solve_off_uniform_sigma0(element_tuple, kind, case):
    # a jittered mesh has one shape class per element; sigma = 1 keeps every
    # pressure mode and adds the pressure jumps S2 to the factored block
    mesh = _jittered_mesh(6) if case == "jittered" else build_uniform_triangulation(6)
    cfg = SpaceConfig(*element_tuple, sigma=int(case == "sigma1"))
    _assert_condensed_solve_equals_full_solve(*_system(kind, mesh, cfg))


def test_factorize_builds_from_element_matrices(mesh4, element_tuple, monkeypatch):
    # the factor condenses the element layout and never slices the pinned K;
    # what SuperLU gets is the Schur complement of K split at nc, the count
    # of condensed unknowns, which lead K
    system, step = _system("steady", mesh4, SpaceConfig(*element_tuple))

    def forbidden(self, key):
        raise AssertionError("a sparse matrix was sliced")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "__getitem__", forbidden)
    factor = _factorize(system)
    monkeypatch.undo()
    rhs, K = system.operator(*step), system.matrix()
    x = factor.solve(rhs)
    assert np.linalg.norm(K @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    nc, K = factor.nc, K.toarray()
    S = K[nc:, nc:] - K[nc:, :nc] @ np.linalg.solve(K[:nc, :nc], K[:nc, nc:])
    assert abs(system.reduced_blocks()[-1] - S).max() <= 1e-12 * abs(S).max()


@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("kind", ["steady", "evolutionary"])
def test_one_element_layout_per_solve(mesh4, element_tuple, kind, sigma, monkeypatch):
    # K, its boundary lift and the condensed factor share one layout
    calls = []
    layout = SaddleSystem.element_layout
    monkeypatch.setattr(SaddleSystem, "element_layout", lambda s: calls.append(1) or layout(s))
    cfg = SpaceConfig(*element_tuple, sigma=sigma)
    if kind == "steady":
        solve_steady(mesh4, cfg, manufactured_problem("steady_oseen_ex1"))
    else:
        grid = TimeGrid.from_tau(1.0, 0.25)
        solve_evolutionary(mesh4, cfg, manufactured_problem("evolutionary_oseen_ex2"), grid)
    assert len(calls) == 1


def test_one_shot_solve_builds_no_K_and_a_march_builds_it_once(mesh4, element_tuple,
                                                               monkeypatch):
    # a steady solve checks its residual with the element product, so the
    # matrix() cache stays empty; a march scatters K on its first step and
    # takes a CSR product with it on every step
    cfg = SpaceConfig(*element_tuple)
    sol = solve_steady(mesh4, cfg, manufactured_problem("steady_oseen_ex1"))
    assert sol.system._K is None
    builds, matrix = [], SaddleSystem.matrix
    monkeypatch.setattr(SaddleSystem, "matrix", lambda s: builds.append(s._K is None) or matrix(s))
    grid = TimeGrid.from_tau(0.5, 0.5 / 4)
    traj = solve_evolutionary(mesh4, cfg, manufactured_problem("evolutionary_oseen_ex2"), grid,
                              keep_trajectory=True)
    assert builds == [True] + [False] * (grid.n_steps - 1)
    assert isinstance(traj[0].system._K, sp.csr_matrix)


def test_backward_euler_element_sum_equals_added_mass(mesh4, element_tuple):
    # rho/tau mass enters the element sum of the velocity block: the element
    # matrices differ by rho/tau Mk on the interior slots, and the pinned K
    # by the mass on its interior rows and columns, which lead K
    ker = ElementKernels(mesh4, SpaceConfig(*element_tuple))
    beta = manufactured_problem("evolutionary_oseen_ex2").beta
    stepped, steady = build_saddle_system(ker, beta, 0.1), build_saddle_system(ker, beta)
    dk, nI = ker.dk, ker.dofmap.n_interior
    added = steady.A_local.copy()
    added[:, :dk, :dk] += ker.config.rho * ker.Mk / 0.1
    assert abs(stepped.A_local - added).max() <= 1e-14 * abs(added).max()
    K_stepped, K_steady = stepped.matrix(), steady.matrix()
    rest = sp.csr_matrix((K_steady.shape[0] - nI,) * 2)
    mass = sp.block_diag([assemble_bilinear("mass", ker)[:nI, :nI] / 0.1, rest])
    assert abs(K_stepped - (K_steady + mass)).max() <= 1e-14 * abs(K_stepped).max()


def test_factored_matrix_is_the_condensed_one(mesh4, element_tuple, monkeypatch):
    # SuperLU sees only the traces and the kept pressure modes: the element
    # interiors are eliminated, with sigma = 0 so are the non-constant
    # pressure modes of every element, and one pressure DOF is pinned.  The
    # P1 S with sigma = 0 is solved through the null space of its flux rows:
    # SuperLU factors R, whose order is S's less twice the kept pressures
    factored, expected = [], []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda S, **kw: factored.append(S.shape) or splu(S, **kw))
    for sigma in (0, 1):
        cfg = SpaceConfig(*element_tuple, sigma=sigma)
        solve_steady(mesh4, cfg, manufactured_problem("steady_oseen_ex1"))
        dm = ElementKernels(mesh4, cfg).dofmap
        n = dm.free_dofs.size - 2 * dm.dk * dm.n_elements + dm.n_pressure - 1
        n -= dm.n_elements * (dm.dn - 1) if sigma == 0 else 0
        n -= 2 * (dm.n_elements - 1) if (element_tuple, sigma) == ((1, 0, 1, 0, 0), 0) else 0
        expected.append((n, n))
    assert factored == expected


def _record_splu(monkeypatch):
    # the keyword arguments of every spla.splu call of the solver
    calls, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda S, **kw: calls.append(kw) or splu(S, **kw))
    return calls


STATIC = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
          "options": {"SymmetricMode": True}}
EQUILIBRATED = {"permc_spec": "COLAMD", "diag_pivot_thresh": 0.1}


def _null_space_R(factor, S):
    # R = Z^T S_tt Z, from the Z that the factor stacks over N^T S_tt Z
    nk = factor.S_tt.shape[0]
    Z = factor.ZC[:nk]
    return (Z.T @ S[:nk, :nk] @ Z).tocsc()


@pytest.mark.parametrize(
    "element, sigma, null_space",
    [((1, 0, 1, 0, 0), 0, True), ((1, 0, 1, 0, 0), 1, False), ((2, 1, 1, 1, 1), 1, False),
     ((2, 1, 1, 1, 1), 0, False)],
    ids=["P1-sigma0", "P1-sigma1", "P2-sigma1", "P2-sigma0"],
)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_factor_recipe_follows_the_schur_complement(mesh8, element, sigma, null_space, kind,
                                                     monkeypatch):
    # a zero pressure block in S (the kept P1 pressures with sigma = 0) takes
    # the null-space path, whose R has static pivots and less fill than
    # SuperLU's default factor of S; a nonzero diagonal (sigma = 1, or the
    # P2 tuple) takes the threshold-pivoted factor of S; both are equilibrated
    system, step = _system(kind, mesh8, SpaceConfig(*element, sigma=sigma))
    S = system.reduced_blocks()[-1]
    assert S.diagonal().all() == (not null_space)
    before = S.copy()
    calls = _record_splu(monkeypatch)
    factor = _factorize(system)
    monkeypatch.undo()
    assert calls == ([STATIC] if null_space else [EQUILIBRATED])
    assert isinstance(factor.schur, solver._NullSpaceLU) == null_space
    lu = factor.schur.R if null_space else factor.schur
    A = _null_space_R(factor.schur, S) if null_space else S
    assert lu.lu.nnz < spla.splu(S).nnz
    # r and c are powers of two, and lead every column of diag(r) A diag(c) to [0.5, 1)
    r, c = lu.r, lu.c
    assert np.all(np.frexp(r)[0] == 0.5) and np.all(np.frexp(c)[0] == 0.5)
    colmax = abs(sp.diags(r) @ A @ sp.diags(c)).max(axis=0)
    assert colmax.min() >= 0.5 and colmax.max() < 1.0
    # the cached S is left as it was: the factored copy owns its arrays
    assert S.has_sorted_indices and abs(S - before).max() == 0.0
    rhs, K = system.operator(*step), system.matrix()
    x = factor.solve(rhs)
    assert np.linalg.norm(K @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # the checked solve takes that one solve, with no refinement step
    assert np.array_equal(linear_solve(system, *step, factor), x)


def _low_viscosity_system(mu):
    mesh, cfg = build_uniform_triangulation(16), SpaceConfig(1, 0, 1, 0, 0, mu=mu)
    return _steady_system(mesh, cfg, manufactured_problem("steady_oseen_ex1", mu=mu))


@pytest.mark.parametrize("mu", [1e-3, 1e-4])
def test_convection_dominated_schur_complement_takes_the_null_space_factor(mu, monkeypatch):
    # steady P1 at small mu: S keeps its zero pressure block, so R is
    # factored with static pivots, whatever the convection does to S's
    # diagonal, and the factor passes the residual check at n = 16
    system, step = _low_viscosity_system(mu)
    S = system.reduced_blocks()[-1]
    assert not S.diagonal().all()
    calls = _record_splu(monkeypatch)
    factor = _factorize(system)
    assert calls == [STATIC] and isinstance(factor.schur, solver._NullSpaceLU)
    linear_solve(system, *step, factor)
    assert calls == [STATIC] and isinstance(factor.schur, solver._NullSpaceLU)


def test_failed_static_solve_falls_back_to_the_default_factor(mesh4, config_low, monkeypatch):
    # a null-space factor whose R is off by 1e-6 fails the residual check:
    # the solve is not refined, and S is refactored with threshold pivoting;
    # the solution is that factor's, and later solves keep the new factor
    system, step = _system("steady", mesh4, config_low)
    *_, Dinv_stack, Dinv_K_ck, S = system.reduced_blocks()
    default = _CondensedFactor(system.nc, Dinv_stack, Dinv_K_ck, solver._threshold_pivot_lu(S))
    failing = _factorize(system)
    R = solver._scaled_lu(_null_space_R(failing.schur, S) * (1 + 1e-6), **STATIC)
    failing.schur = replace(failing.schur, R=R)
    rhs, K = system.operator(*step), system.matrix()
    assert not np.linalg.norm(K @ failing.solve(rhs) - rhs) <= 1e-10 * np.linalg.norm(rhs)
    calls = _record_splu(monkeypatch)
    x = linear_solve(system, *step, failing)
    assert calls == [EQUILIBRATED]
    assert isinstance(failing.schur, solver._ScaledLU)
    ref = linear_solve(system, *step, default)
    assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()
    linear_solve(system, *step, failing)
    assert calls == [EQUILIBRATED]


def test_zero_static_pivot_falls_back_to_the_default_factor(mesh4, config_low, monkeypatch):
    # an exactly zero static pivot of R leaves S to the threshold-pivoted factor
    splu = spla.splu

    def zero_static_pivot(S, **kw):
        if kw == STATIC:
            raise RuntimeError("Factor is exactly singular")
        calls.append(kw)
        return splu(S, **kw)

    calls = []
    monkeypatch.setattr(spla, "splu", zero_static_pivot)
    system, step = _system("steady", mesh4, config_low)
    assert isinstance(_factorize(system).schur, solver._ScaledLU)
    assert calls == [EQUILIBRATED]
    linear_solve(system, *step)


def test_structurally_singular_schur_complement_raises(mesh4, config_low):
    # two columns of S with one entry each, in the same row: S is no longer
    # the P1 saddle point, SuperLU meets a zero pivot, and the structural
    # rank of S names the cause
    system, step = _system("steady", mesh4, config_low)
    *blocks, S = system.reduced_blocks()
    S = S.tolil()
    S[:, :2] = 0.0
    S[0, :2] = 1.0
    system._blocks = (*blocks, S.tocsc())
    with pytest.raises(LinearSolveError, match="structurally singular"):
        linear_solve(system, *step)


@pytest.mark.parametrize("line", ["row", "column"])
def test_empty_line_of_schur_complement_raises_before_superlu(mesh4, config_high, line,
                                                              monkeypatch):
    # an empty row or column of a threshold-path S (the P2 tuple) is caught
    # before its inverse row or column maximum, 1/0, is taken: SuperLU is not
    # called, and no floating-point warning is raised
    system, step = _system("steady", mesh4, config_high)
    *blocks, S = system.reduced_blocks()
    S = S.tolil()
    if line == "row":
        S[3, :] = 0.0
    else:
        S[:, 3] = 0.0
    S = S.tocsc()
    S.eliminate_zeros()
    system._blocks = (*blocks, S)
    calls = _record_splu(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveError, match=rf"structurally singular.*order {S.shape[0]}"):
            linear_solve(system, *step)
    assert calls == []


def test_factor_of_another_system_is_rejected_and_left_intact(mesh4, element_tuple):
    # a factor that this system's reduced_blocks() did not build is refused
    # before it is used (a failed static solve would replace its schur), so
    # it still solves its own system afterwards
    cfg = SpaceConfig(*element_tuple)
    own, own_step = _system("backward_euler", mesh4, cfg)
    other = _factorize(own)
    schur = other.schur
    system, step = _system("steady", mesh4, cfg)
    with pytest.raises(ValueError, match="not built from this system"):
        linear_solve(system, *step, other)
    assert other.schur is schur
    linear_solve(own, *own_step, other)


def test_factor_of_a_perturbed_schur_complement_fails_the_residual_check(mesh4, element_tuple):
    # the residual is checked on the full pinned K, not on the factored S:
    # the system's own factor holding the LU of a perturbed S fails it, also
    # after the refinement step
    system, step = _system("steady", mesh4, SpaceConfig(*element_tuple))
    factor = _factorize(system)
    perturbed = system.reduced_blocks()[-1].copy()
    perturbed.data *= 1 + 0.1 * np.random.default_rng(0).standard_normal(perturbed.nnz)
    factor.schur = solver._threshold_pivot_lu(perturbed)
    with pytest.raises(LinearSolveError, match="relative residual"):
        linear_solve(system, *step, factor)


def test_singular_interior_block_raises(mesh4, element_tuple):
    system, step = _steady_system(
        mesh4, SpaceConfig(*element_tuple), manufactured_problem("steady_oseen_ex1")
    )
    # the interior rows and columns of element 5's velocity element matrix
    dk = system.kernels.dk
    system.A_local[5, :dk] = 0.0
    system.A_local[5, :, :dk] = 0.0
    with pytest.raises(LinearSolveError, match="condensed block of element 5 is singular"):
        linear_solve(system, *step)


def test_linear_solve_residual_check(mesh4, element_tuple, monkeypatch):
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("steady_oseen_ex1")
    system, step = _steady_system(mesh4, cfg, prob)
    x = linear_solve(system, *step)
    rhs, K = system.operator(*step), system.matrix()
    res = np.linalg.norm(K @ x - rhs) / np.linalg.norm(rhs)
    assert res <= 1e-10
    # a one-shot solve whose factor is off by 1e-8 (the threshold LU of a
    # scaled S) needs its refinement step, and takes every product with K,
    # the refinement's too, from the element matrices
    fresh, _ = _steady_system(mesh4, cfg, prob)
    factorize = solver._factorize

    def scaled_factor(system):
        factor = factorize(system)
        factor.schur = solver._threshold_pivot_lu(system.reduced_blocks()[-1] * (1 + 1e-8))
        return factor

    def no_matrix(system):
        raise AssertionError("a one-shot solve scattered K")

    applies, apply = [], SaddleSystem.apply
    monkeypatch.setattr(solver, "_factorize", scaled_factor)
    monkeypatch.setattr(SaddleSystem, "apply", lambda s, x: applies.append(1) or apply(s, x))
    monkeypatch.setattr(SaddleSystem, "matrix", no_matrix)
    refined = linear_solve(fresh, *step)
    assert len(applies) == 3   # the first residual, the refinement's, the last
    assert np.linalg.norm(refined - x) <= 1e-9 * np.linalg.norm(x)


def test_incompatible_boundary_data_raises(mesh4, element_tuple):
    # g = (x, 0) has net outward flux 1, so no divergence-free velocity
    # takes these boundary values
    prob = manufactured_problem("stokes_patch")
    bad = replace(prob, g=lambda x, y: np.stack([x, 0.0 * y], axis=-1)[..., None, :])
    with pytest.raises(ValueError, match=r"boundary data g has net outward flux 1\.0"):
        solve_steady(mesh4, SpaceConfig(*element_tuple), bad)


def test_compatibility_validation():
    mesh = build_uniform_triangulation(2)
    prob = manufactured_problem("stokes_patch")
    # n = 2 > max(m, k+1) = 2 is fine; n = 2 with j = 0, sigma = 0 is not
    bad = SpaceConfig(1, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        solve_steady(mesh, bad, prob)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["mu", "rho", "zeta", "gamma", "alpha"])
def test_nonfinite_scheme_parameter_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SpaceConfig(1, 0, 1, 0, 0, **{name: value})


@pytest.mark.parametrize("degree", [1.5, 1.0, "1", None])
def test_non_integer_degree_rejected(degree):
    with pytest.raises(ValueError, match="degree k must be an integer"):
        SpaceConfig(degree, 0, 1, 0, 0)
    # numpy integers are integers
    assert SpaceConfig(np.int64(1), 0, 1, 0, 0).quad_order == 6


@pytest.mark.parametrize("cells", [8, 16])
def test_cycled_vertex_lists_give_the_same_solution(cells, element_tuple):
    # listing every element's vertices as (v1, v2, v0) changes the shape-class
    # keys, the edge numbering and the DOF order, but not the discrete solution
    mesh = build_uniform_triangulation(cells)
    cycled = _build_topology(mesh.vertices, mesh.elements[:, [1, 2, 0]])
    assert not np.array_equal(cycled.edges, mesh.edges)
    config, problem = SpaceConfig(*element_tuple), manufactured_problem("steady_oseen_ex1")
    sol, sol_c = solve_steady(mesh, config, problem), solve_steady(cycled, config, problem)
    ker, ker_c = sol.system.kernels, sol_c.system.kernels
    assert not np.allclose(ker.local[:2], ker_c.local[:2])
    assert_reports_close(
        evaluate_errors(sol_c, problem), evaluate_errors(sol, problem), exact_norms(ker, problem)
    )


@pytest.mark.parametrize("cells", [4, 8])
def test_patch_test_exactness(cells, element_tuple):
    # u = (y, x), p = 0 lies in the discrete space: machine-precision errors
    mesh = build_uniform_triangulation(cells)
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("stokes_patch")
    sol = solve_steady(mesh, cfg, prob)
    rep = evaluate_errors(sol, prob)
    assert rep.energy < 1e-10
    assert rep.l2_velocity_proj < 1e-10
    assert rep.l2_pressure_proj < 1e-10
    assert abs(sol.pressure_mean) < 1e-10


def test_steady_solution_invariants(mesh8, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("steady_oseen_ex1")
    sol = solve_steady(mesh8, cfg, prob)
    assert abs(sol.pressure_mean) < 1e-10
    assert incompressibility_residual(sol) < 1e-9
    # boundary traces equal the projected boundary data
    vals = prob.g_time(0.0) @ apply_dirichlet(sol.system, prob.g)
    vec = sol.velocity_vector
    assert np.array_equal(vec[sol.system.kernels.dofmap.boundary_dofs], vals)


def test_evolutionary_zero_data_stays_zero(mesh4, config_low):
    prob = manufactured_problem("stokes_patch")

    def zero_vec(x, y, t=0.0):
        return np.zeros(np.broadcast(x, y).shape + (2,))

    zero_prob = replace(
        prob, name="zero", u=zero_vec, g=lambda x, y: zero_vec(x, y)[..., None, :],
        g2=lambda x, y: zero_vec(x, y),
        f=lambda x, y: zero_vec(x, y)[..., None, :], steady=False,
    )
    grid = TimeGrid.from_tau(0.5, 0.5 / 8)
    traj = solve_evolutionary(mesh4, config_low, zero_prob, grid, keep_trajectory=True)
    assert len(traj) == 8
    for sol in traj:
        assert np.abs(sol.velocity_vector).max() == 0.0
        assert np.abs(sol.pressure_vector).max() < 1e-13


def test_evolutionary_matches_reference_cell():
    # fully-discrete benchmark cell: tau = h^2, coarse mesh
    mesh = build_uniform_triangulation(4)
    cfg = SpaceConfig(2, 1, 1, 1, 1)
    prob = manufactured_problem("evolutionary_oseen_ex2")
    grid = TimeGrid.from_tau(1.0, 1.0 / 16)
    sol = solve_evolutionary(mesh, cfg, prob, grid)
    rep = evaluate_errors(sol, prob)
    assert rep.energy == pytest.approx(2.6240e-02, rel=0.02)
    assert rep.l2_velocity_proj == pytest.approx(2.0985e-03, rel=0.02)


def _step_data(system, prob, u_prev, t, tau):
    # the load and the boundary traces of the backward-Euler step to time t
    # from the velocity vector u_prev, whose mass term the load carries; the
    # mass lives on the interior, so the trace rows of that term are zero
    ker = system.kernels
    nI = ker.dofmap.n_interior
    mass_term = assemble_bilinear("mass", ker) @ (u_prev / tau)
    assert not mass_term[nI:].any()
    load = prob.f_time(t) @ assemble_load(ker, prob.f) + mass_term[:nI]
    return load, prob.g_time(t) @ apply_dirichlet(system, prob.g)


def test_factor_reuse_equals_refactoring(mesh4, config_low):
    # the march reuses one factorization; a fresh solve of the final step,
    # with its data rebuilt from the state before it, gives the same state
    prob = manufactured_problem("evolutionary_oseen_ex2")
    grid = TimeGrid.from_tau(0.25, 0.25 / 4)
    *_, prev, reused = solve_evolutionary(mesh4, config_low, prob, grid, keep_trajectory=True)
    system = reused.system
    step = _step_data(system, prob, prev.velocity_vector, reused.time, grid.tau)
    vel, pres = system.expand(spla.spsolve(system.matrix(), system.operator(*step)), step[1])
    assert np.abs(reused.velocity_vector - vel).max() < 1e-12
    assert np.abs(reused.pressure_vector - pres).max() < 1e-12


def _full_state_march(mesh, cfg, prob, grid):
    # backward Euler carrying the whole expanded state between steps, with
    # the mass term on every velocity row: the reference for the lean march
    ker = ElementKernels(mesh, cfg)
    system = build_saddle_system(ker, prob.beta, grid.tau)
    constrain_system(system)
    u_prev = ker.dofmap.velocity_vector(*project_velocity(ker, prob.g2))
    for step in range(1, grid.n_steps + 1):
        load, traces = _step_data(system, prob, u_prev, step * grid.tau, grid.tau)
        u_prev, pres = system.expand(linear_solve(system, load, traces), traces)
    return u_prev, pres


def test_lean_march_equals_full_state_march(mesh4, element_tuple):
    # the mass form has entries on interior rows and columns only, so
    # carrying the interiors adds the same sums, in the same order
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("evolutionary_oseen_ex2")
    grid = TimeGrid.from_tau(0.5, 0.5 / 6)
    sol = solve_evolutionary(mesh4, cfg, prob, grid)
    vel, pres = _full_state_march(mesh4, cfg, prob, grid)
    assert np.array_equal(sol.velocity_vector, vel)
    assert np.array_equal(sol.pressure_vector, pres)


def test_march_forms_beta_once_per_point_set(mesh4, mesh8, config_low, monkeypatch):
    # the forcing's spatial terms, whose ex2 ones hold the convection field,
    # are evaluated once per march, before its first step; a march on another
    # mesh evaluates them once more
    prob = manufactured_problem("evolutionary_oseen_ex2")
    calls = []
    beta = problems._beta_standard
    monkeypatch.setattr(problems, "_beta_standard", lambda x, y: calls.append(1) or beta(x, y))
    grid = TimeGrid.from_tau(0.5, 0.5 / 8)
    solve_evolutionary(mesh4, config_low, prob, grid)
    assert len(calls) == 1
    solve_evolutionary(mesh8, config_low, prob, grid)
    assert len(calls) == 2


def test_march_expands_only_returned_states(mesh4, element_tuple, monkeypatch):
    # without a trajectory only the final state is expanded; it equals the
    # last state of the kept trajectory bit for bit
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("evolutionary_oseen_ex2")
    grid = TimeGrid.from_tau(0.5, 0.5 / 5)
    expands, operators = [], []
    expand, operator = SaddleSystem.expand, SaddleSystem.operator
    monkeypatch.setattr(SaddleSystem, "expand", lambda s, *a: expands.append(1) or expand(s, *a))
    monkeypatch.setattr(SaddleSystem, "operator",
                        lambda s, *a: operators.append(1) or operator(s, *a))
    final = solve_evolutionary(mesh4, cfg, prob, grid)
    assert len(expands) == 1
    assert len(operators) == grid.n_steps   # one right-hand side a step
    traj = solve_evolutionary(mesh4, cfg, prob, grid, keep_trajectory=True)
    assert len(expands) == 1 + grid.n_steps
    assert final.time == traj[-1].time
    assert np.array_equal(final.velocity_vector, traj[-1].velocity_vector)
    assert np.array_equal(final.pressure_vector, traj[-1].pressure_vector)


def test_evolutionary_late_incompatible_boundary_data_raises(mesh4, config_low):
    # the flux compatibility of g is checked on every step's boundary data,
    # not only on the first step's: the second term, (x, 0), has net outward
    # flux 1 and enters only after t = 0.5
    prob = manufactured_problem("stokes_patch")

    def g(x, y):
        return np.stack([prob.u(x, y), np.stack([x, 0.0 * y], axis=-1)], axis=-2)

    bad = replace(prob, g=g, g_time=lambda t: np.array([1.0, t > 0.5]))
    grid = TimeGrid.from_tau(1.0, 1.0 / 4)
    with pytest.raises(ValueError, match="net outward flux"):
        solve_evolutionary(mesh4, config_low, bad, grid)
    solve_evolutionary(mesh4, config_low, bad, TimeGrid.from_tau(0.5, 0.5 / 2))


def test_steady_nan_forcing_raises(mesh4, config_low):
    prob = manufactured_problem("steady_oseen_ex1")
    nan_prob = replace(prob, f=lambda x, y: np.full(np.shape(x) + (1, 2), np.nan))
    with pytest.raises(ValueError, match="forcing f"):
        solve_steady(mesh4, config_low, nan_prob)
    nan_prob = replace(prob, f_time=lambda t: np.full(1, np.nan))
    with pytest.raises(ValueError, match="forcing f.* at t = 0"):
        solve_steady(mesh4, config_low, nan_prob)


def test_forcing_terms_of_another_shape_raise(mesh4, config_low):
    # the terms are (..., K, 2) and the coefficients (K,): a forcing in the
    # summed form (..., 2), or coefficients of another length, are refused
    # with the shapes named, not broadcast
    prob = manufactured_problem("steady_oseen_ex1")
    summed = replace(prob, f=lambda x, y: prob.f(x, y)[..., 0, :])
    with pytest.raises(ValueError, match=r"forcing f has shape \(32, 16, 2\)"):
        solve_steady(mesh4, config_low, summed)
    with pytest.raises(ValueError, match=r"forcing f .* not 1 finite values"):
        solve_steady(mesh4, config_low, replace(prob, f_time=lambda t: np.ones(2)))


def test_evolutionary_late_nan_forcing_raises(mesh4, config_low):
    # the forcing's coefficients turn NaN halfway through the march: the step
    # must fail before it forms the load
    prob = manufactured_problem("evolutionary_oseen_ex2")

    def f_time(t):
        return prob.f_time(t) if t <= 0.5 else np.full(2, np.nan)

    grid = TimeGrid.from_tau(1.0, 1.0 / 8)
    with pytest.raises(ValueError, match=r"forcing f.* at t = 0\.625"):
        solve_evolutionary(mesh4, config_low, replace(prob, f_time=f_time), grid)


def test_evolutionary_late_nan_boundary_data_raises(mesh4, config_low, monkeypatch):
    # the boundary data's coefficients turn NaN halfway through the march:
    # the step must fail, naming g and its time, before its solve
    prob = manufactured_problem("evolutionary_oseen_ex2")

    def g_time(t):
        return prob.g_time(t) if t <= 0.5 else np.full(1, np.nan)

    solves, solve = [], solver.linear_solve
    monkeypatch.setattr(solver, "linear_solve", lambda *a: solves.append(1) or solve(*a))
    grid = TimeGrid.from_tau(1.0, 1.0 / 8)
    with pytest.raises(ValueError, match=r"boundary data g.* at t = 0\.625"):
        solve_evolutionary(mesh4, config_low, replace(prob, g_time=g_time), grid)
    assert len(solves) == 4   # the steps to t = 0.5


def test_non_finite_boundary_terms_are_refused_once(mesh4, config_low):
    # the terms of g are evaluated and checked once a cell, before any step
    prob = manufactured_problem("evolutionary_oseen_ex2")
    calls = []

    def g(x, y):
        calls.append(1)
        vals = prob.g(x, y)
        vals[x > 0.9] = np.inf
        return vals

    bad = replace(prob, g=g)
    with pytest.raises(ValueError, match="boundary data g has non-finite values"):
        solve_evolutionary(mesh4, config_low, bad, TimeGrid.from_tau(1.0, 1.0 / 8))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="boundary data g has non-finite values"):
        solve_steady(mesh4, config_low, replace(bad, steady=True))
    assert len(calls) == 2


def test_boundary_terms_of_another_shape_raise(mesh4, config_low):
    # the terms are (..., K, 2) and the coefficients (K,): boundary data in
    # the summed form (..., 2), or coefficients of another length, are
    # refused with the shapes named, not broadcast
    prob = manufactured_problem("steady_oseen_ex1")
    summed = replace(prob, g=lambda x, y: prob.u(x, y))
    with pytest.raises(ValueError, match=r"boundary data g has shape \(16, \d+, 2\)"):
        solve_steady(mesh4, config_low, summed)
    with pytest.raises(ValueError, match=r"boundary data g .* at t = 0, not 1 finite values"):
        solve_steady(mesh4, config_low, replace(prob, g_time=lambda t: np.ones(2)))


def test_linear_solve_nan_rhs_raises(mesh4, config_low):
    # a NaN right-hand side that bypasses the input checks still fails loud,
    # naming the factors tried (P1 with sigma = 0 starts with the null-space
    # factor R) and the orders of S and R
    prob = manufactured_problem("steady_oseen_ex1")
    system, (load, traces) = _steady_system(mesh4, config_low, prob)
    order = system.K_dofs.size - system.nc
    order_R = order - 2 * (system.kernels.mesh.n_elements - 1)
    match = (rf"equilibrated LU of S \(order {order}\) by the null-space factor R \(order "
             rf"{order_R}\) of S, then threshold pivoting: .* nan")
    with pytest.raises(LinearSolveError, match=match):
        linear_solve(system, np.full_like(load, np.nan), traces)


def test_trajectory_states_keep_their_own_step_data(mesh4, config_low):
    # every state of a kept trajectory takes its own step's boundary data,
    # and its step data, rebuilt from the state before it, reproduce it
    prob = manufactured_problem("evolutionary_oseen_ex2")
    grid = TimeGrid.from_tau(1.0, 1.0 / 4)
    traj = solve_evolutionary(mesh4, config_low, prob, grid, keep_trajectory=True)
    system = traj[0].system
    ker = system.kernels
    u_prev = ker.dofmap.velocity_vector(*project_velocity(ker, prob.g2))
    for sol in traj:
        step = _step_data(system, prob, u_prev, sol.time, grid.tau)
        assert np.array_equal(sol.velocity_vector[ker.dofmap.boundary_dofs], step[1])
        vel, pres = system.expand(spla.spsolve(system.matrix(), system.operator(*step)),
                                  step[1])
        assert np.abs(sol.velocity_vector - vel).max() < 1e-12
        assert np.abs(sol.pressure_vector - pres).max() < 1e-12
        u_prev = sol.velocity_vector


def test_trajectory_states_share_one_system(mesh4, element_tuple):
    # the system holds no step data, so the march keeps no per-state copy
    prob = manufactured_problem("evolutionary_oseen_ex2")
    grid = TimeGrid.from_tau(0.5, 0.5 / 4)
    traj = solve_evolutionary(mesh4, SpaceConfig(*element_tuple), prob, grid,
                              keep_trajectory=True)
    assert all(sol.system is traj[0].system for sol in traj)


def test_operator_holds_no_step_data(mesh4, element_tuple):
    # a call with another step's data leaves no trace: the same step data
    # give a bit-identical K and right-hand side before and after it
    prob = manufactured_problem("evolutionary_oseen_ex2")
    system, step_a = _backward_euler_system(mesh4, SpaceConfig(*element_tuple), prob)
    ker = system.kernels
    step_b = (prob.f_time(0.2) @ assemble_load(ker, prob.f),
              prob.g_time(0.2) @ apply_dirichlet(system, prob.g))
    assert not np.array_equal(step_a[1], step_b[1])
    rhs, K = system.operator(*step_a).copy(), system.matrix()
    system.operator(*step_b)
    rhs_again, K_again = system.operator(*step_a), system.matrix()
    assert (K != K_again).nnz == 0 and np.array_equal(K.data, K_again.data)
    assert np.array_equal(rhs, rhs_again)


def test_operator_rejects_a_load_of_another_length(mesh4, config_low):
    # the load is the interior load: a full-length velocity vector, or a
    # short one, is refused with both lengths named, not broadcast
    system, (load, traces) = _steady_system(mesh4, config_low,
                                            manufactured_problem("steady_oseen_ex1"))
    nI = system.kernels.dofmap.n_interior
    assert load.shape == (nI,)
    for bad in (np.zeros(system.kernels.dofmap.n_velocity), load[:-1]):
        match = rf"shape \({bad.size},\).*\({nI},\)"
        with pytest.raises(ValueError, match=match):
            system.operator(bad, traces)
        with pytest.raises(ValueError, match=match):
            linear_solve(system, bad, traces)


def test_steady_low_viscosity_sweep():
    # the steady robustness sweep: ex1 at small mu, where convection
    # dominates.  Only P1 at mu = 1e-4, n = 32 fails the residual check, its
    # reading at the rounding floor of the product that measures it (the
    # CHANGES.md FOUND on RESIDUAL_TOL); a change that moves which cells
    # raise edits this list and says so.  P2 at n = 32, which raises at no
    # cell, is left out for its run time.
    failed = []
    for elements, sizes in [((1, 0, 1, 0, 0), (8, 16, 32)), ((2, 1, 1, 1, 1), (8, 16))]:
        for n, sigma, mu in itertools.product(sizes, (0, 1), (1e-2, 1e-3, 1e-4)):
            cfg = SpaceConfig(*elements, sigma=sigma, mu=mu)
            try:
                solve_steady(build_uniform_triangulation(n), cfg,
                             manufactured_problem("steady_oseen_ex1", mu=mu))
            except LinearSolveError as exc:
                assert "relative residual" in str(exc) and "backward error" in str(exc)
                assert re.search(r"mesh Peclet number \S+, normwise", str(exc))
                failed.append((elements, n, sigma, mu))
    assert failed == [((1, 0, 1, 0, 0), 32, sigma, 1e-4) for sigma in (0, 1)]


@pytest.mark.parametrize("sigma", [0, 1])
def test_failing_sweep_cell_is_backward_stable(sigma):
    # the one cell of the sweep that fails the residual check solves K x = b
    # to a normwise backward error at the level of eps: its relative
    # residual is the rounding floor of the product, not an inaccurate solve
    cfg = SpaceConfig(1, 0, 1, 0, 0, sigma=sigma, mu=1e-4)
    with pytest.raises(LinearSolveError, match="relative residual") as exc:
        solve_steady(build_uniform_triangulation(32), cfg,
                     manufactured_problem("steady_oseen_ex1", mu=1e-4))
    eta = float(re.search(r"normwise backward error (\S+)$", str(exc.value)).group(1))
    assert eta < 1e-14


def test_time_march_approaches_steady_fixed_point(mesh4, config_low):
    # frozen-coefficient data: the march contracts toward the steady solve
    steady_prob = manufactured_problem("steady_oseen_ex1")
    steady = solve_steady(mesh4, config_low, steady_prob)

    frozen = replace(steady_prob, steady=False, g2=lambda x, y: 0.0 * steady_prob.u(x, y, 0.0))
    grid = TimeGrid.from_tau(8.0, 8.0 / 64)
    traj = solve_evolutionary(mesh4, config_low, frozen, grid, keep_trajectory=True)
    ref = steady.velocity_vector
    dists = [np.linalg.norm(sol.velocity_vector - ref) for sol in traj]
    # monotone decay down to the roundoff floor, then convergence to the
    # steady solve at machine precision
    above = [d for d in dists if d > 1e-12]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(above, above[1:]))
    assert dists[-1] < 1e-10


def test_incompressibility_along_march(mesh4, config_high):
    prob = manufactured_problem("evolutionary_oseen_ex2")
    grid = TimeGrid.from_tau(0.5, 0.5 / 4)
    traj = solve_evolutionary(mesh4, config_high, prob, grid, keep_trajectory=True)
    for sol in traj:
        assert incompressibility_residual(sol) < 1e-9
        assert abs(sol.pressure_mean) < 1e-10
