"""Manufactured-problem validation against symbolic oracles."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import sympy

from gwgflow import solver
from gwgflow.localops import ElementKernels
from gwgflow.mesh import build_uniform_triangulation
from gwgflow.problems import PROBLEM_NAMES, manufactured_problem
from gwgflow.solver import TimeGrid, solve_evolutionary

X, Y, T = sympy.symbols("x y t")


def _symbolic_forcing(u1, u2, p, mu, rho):
    """f = rho u_t - mu lap(u) + rho (beta . grad) u + grad p, symbolically."""
    b1 = -X + sympy.sin(X) * sympy.sin(Y)
    b2 = sympy.cos(X) * sympy.cos(Y)
    f = []
    for ui in (u1, u2):
        conv = b1 * sympy.diff(ui, X) + b2 * sympy.diff(ui, Y)
        lap = sympy.diff(ui, X, 2) + sympy.diff(ui, Y, 2)
        f.append(rho * sympy.diff(ui, T) - mu * lap + rho * conv)
    f[0] += sympy.diff(p, X)
    f[1] += sympy.diff(p, Y)
    return f


@pytest.mark.parametrize(
    "name,mu,rho",
    [
        ("steady_oseen_ex1", 1.0, 1.0),
        ("steady_oseen_ex1", 2.5, 0.7),
        ("evolutionary_oseen_ex2", 1.0, 1.0),
        ("evolutionary_oseen_ex2", 0.3, 1.9),
    ],
)
def test_forcing_matches_symbolic_oracle(name, mu, rho):
    prob = manufactured_problem(name, mu=mu, rho=rho)
    if name == "steady_oseen_ex1":
        u1, u2 = X**2 * Y, -X * Y**2
        p = (2 * X - 1) * (2 * Y - 1)
    else:
        u1, u2 = sympy.exp(-T) * X**2 * Y, -sympy.exp(-T) * X * Y**2
        p = sympy.sin(T) * (2 * X - 1) * (2 * Y - 1)
    f_sym = _symbolic_forcing(u1, u2, p, mu, rho)
    f_num = [sympy.lambdify((X, Y, T), fi, "numpy") for fi in f_sym]

    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, size=(20, 2))
    for t in (0.0, 0.4, 1.0):
        mine = prob.f_time(t) @ prob.f(pts[:, 0], pts[:, 1])
        oracle = np.stack([f(pts[:, 0], pts[:, 1], t) for f in f_num], axis=-1)
        assert np.abs(mine - oracle).max() < 1e-8


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_velocity_divergence_free(name):
    # checked by quadrature element by element
    prob = manufactured_problem(name)
    mesh = build_uniform_triangulation(4)
    eps = 1e-6
    rng = np.random.default_rng(0)
    pts = rng.uniform(2 * eps, 1 - 2 * eps, size=(50, 2))
    for t in (0.0, 0.7):
        dux = (prob.u(pts[:, 0] + eps, pts[:, 1], t) - prob.u(pts[:, 0] - eps, pts[:, 1], t)) / (2 * eps)
        duy = (prob.u(pts[:, 0], pts[:, 1] + eps, t) - prob.u(pts[:, 0], pts[:, 1] - eps, t)) / (2 * eps)
        div = dux[..., 0] + duy[..., 1]
        assert np.abs(div).max() < 1e-9


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_pressure_zero_mean(name):
    prob = manufactured_problem(name)
    mesh = build_uniform_triangulation(8)
    from gwgflow.config import SpaceConfig

    ker = ElementKernels(mesh, SpaceConfig(2, 1, 1, 1, 1))
    for t in (0.0, 0.3, 1.0):
        vals = prob.p(ker.qp[..., 0], ker.qp[..., 1], t)
        assert abs(np.einsum("tp,tp->", ker.qw, vals)) < 1e-12


def test_beta_divergence_is_minus_one():
    # div beta = -1 + cos x sin y - cos x sin y = -1 pointwise
    prob = manufactured_problem("steady_oseen_ex1")
    eps = 1e-6
    rng = np.random.default_rng(1)
    pts = rng.uniform(2 * eps, 1 - 2 * eps, size=(50, 2))
    dbx = (prob.beta(pts[:, 0] + eps, pts[:, 1]) - prob.beta(pts[:, 0] - eps, pts[:, 1])) / (2 * eps)
    dby = (prob.beta(pts[:, 0], pts[:, 1] + eps) - prob.beta(pts[:, 0], pts[:, 1] - eps)) / (2 * eps)
    div = dbx[..., 0] + dby[..., 1]
    assert np.abs(div + 1.0).max() < 1e-9


def test_initial_state_matches_time_zero():
    prob = manufactured_problem("evolutionary_oseen_ex2")
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(30, 2))
    u0 = prob.u(pts[:, 0], pts[:, 1], 0.0)
    g2 = prob.g2(pts[:, 0], pts[:, 1])
    assert np.abs(u0 - g2).max() < 1e-15


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        manufactured_problem("lid_driven_cavity")


def test_patch_problem_fields():
    prob = manufactured_problem("stokes_patch")
    pts = np.array([0.3, 0.6])
    assert np.allclose(prob.u(pts, pts, 0.0), np.stack([pts, pts], axis=-1))
    assert np.all(prob.f(pts, pts) == 0.0)
    assert np.array_equal(prob.f_time(0.7), [1.0])
    assert np.all(prob.beta(pts, pts) == 0.0)
    assert np.all(prob.p(pts, pts, 0.0) == 0.0)


def _ex1_closed_form(x, y, mu, rho):
    """The strong-form ex1 forcing written out term by term."""
    b1 = -x + np.sin(x) * np.sin(y)
    b2 = np.cos(x) * np.cos(y)
    f1 = -mu * 2 * y + rho * b1 * 2 * x * y + rho * b2 * x**2 + 2 * (2 * y - 1.0)
    f2 = mu * 2 * x - rho * b1 * y**2 - rho * b2 * 2 * x * y + 2 * (2 * x - 1.0)
    return np.stack([f1, f2], axis=-1)


def _ex2_closed_form(x, y, t, mu, rho):
    """The strong-form ex2 forcing written out term by term."""
    b1 = -x + np.sin(x) * np.sin(y)
    b2 = np.cos(x) * np.cos(y)
    et = np.exp(-t)
    f1 = (
        -rho * et * x**2 * y
        - mu * et * 2 * y
        + rho * et * (b1 * 2 * x * y + b2 * x**2)
        + 2 * np.sin(t) * (2 * y - 1.0)
    )
    f2 = (
        rho * et * x * y**2
        + mu * et * 2 * x
        + rho * et * (-b1 * y**2 - b2 * 2 * x * y)
        + 2 * np.sin(t) * (2 * x - 1.0)
    )
    return np.stack([f1, f2], axis=-1)


def _forcing(prob, x, y, t):
    """The forcing at ``t`` from its terms, checking their shapes on the way."""
    terms, coefficients = prob.f(x, y), prob.f_time(t)
    assert terms.shape == np.shape(x) + (coefficients.size, 2)
    assert coefficients.shape == (coefficients.size,)
    return coefficients @ terms


@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (2.5, 0.7)])
def test_ex1_forcing_matches_closed_form(mu, rho):
    # one term, with a coefficient of 1 at every time
    prob = manufactured_problem("steady_oseen_ex1", mu=mu, rho=rho)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0, 1, size=(2, 40, 6))
    ref = _ex1_closed_form(x, y, mu, rho)
    for t in (0.0, 0.013, 0.4, 1.0, 2.5):
        assert np.abs(_forcing(prob, x, y, t) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (0.3, 1.9)])
def test_ex2_forcing_matches_closed_form(mu, rho):
    prob = manufactured_problem("evolutionary_oseen_ex2", mu=mu, rho=rho)
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0, 1, size=(2, 40, 6))
    for t in (0.0, 0.013, 0.4, 1.0, 2.5):
        ref = _ex2_closed_form(x, y, t, mu, rho)
        assert np.abs(_forcing(prob, x, y, t) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_march_evaluates_the_forcing_once_per_cell(mesh4, config_low, monkeypatch):
    # the loads of the forcing's terms are formed once per mesh and only
    # scaled per step, so neither count grows with the step count
    prob = manufactured_problem("evolutionary_oseen_ex2")
    assemble = solver.assemble_load
    for n_steps in (2, 8):
        f_calls, load_calls, coefficient_calls = [], [], []
        monkeypatch.setattr(solver, "assemble_load",
                            lambda *a: load_calls.append(1) or assemble(*a))
        counted = replace(prob, f=lambda x, y: f_calls.append(1) or prob.f(x, y),
                          f_time=lambda t: coefficient_calls.append(t) or prob.f_time(t))
        grid = TimeGrid.from_tau(0.5, 0.5 / n_steps)
        sol = solve_evolutionary(mesh4, config_low, counted, grid)
        assert (len(f_calls), len(load_calls)) == (1, 1)
        assert coefficient_calls == [step * grid.tau for step in range(1, n_steps + 1)]
        reference = solve_evolutionary(mesh4, config_low, prob, grid)
        assert np.array_equal(sol.velocity_vector, reference.velocity_vector)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_boundary_data_terms_give_the_exact_velocity(mesh4, name):
    # g_time(t) @ g(x, y) is the exact velocity at the boundary points, to 1 ulp
    prob = manufactured_problem(name)
    from gwgflow.config import SpaceConfig

    x, y = ElementKernels(mesh4, SpaceConfig(2, 1, 1, 1, 1)).boundary_xy
    terms = prob.g(x, y)
    assert terms.shape == x.shape + (1, 2)
    for t in (0.0, 0.013, 0.4, 1.0, 2.5):
        exact = prob.u(x, y, t)
        assert np.all(np.abs(prob.g_time(t) @ terms - exact) <= np.spacing(np.abs(exact)))


def test_march_evaluates_the_boundary_data_once_per_cell(mesh4, config_low, monkeypatch):
    # the traces of the boundary data's terms are projected once per mesh
    # and only scaled per step: g is called once, g_time once a step
    prob = manufactured_problem("evolutionary_oseen_ex2")
    dirichlet = solver.apply_dirichlet
    for n_steps in (2, 8):
        g_calls, projections, coefficient_calls = [], [], []
        monkeypatch.setattr(solver, "apply_dirichlet",
                            lambda *a: projections.append(1) or dirichlet(*a))
        counted = replace(prob, g=lambda x, y: g_calls.append(1) or prob.g(x, y),
                          g_time=lambda t: coefficient_calls.append(t) or prob.g_time(t))
        grid = TimeGrid.from_tau(0.5, 0.5 / n_steps)
        sol = solve_evolutionary(mesh4, config_low, counted, grid)
        assert (len(g_calls), len(projections)) == (1, 1)
        assert coefficient_calls == [step * grid.tau for step in range(1, n_steps + 1)]
        reference = solve_evolutionary(mesh4, config_low, prob, grid)
        assert np.array_equal(sol.velocity_vector, reference.velocity_vector)


def _threads_see_their_own_forcing(prob, sets):
    # study cells on a thread pool share one problem, each cell with its own
    # points; every call must return the forcing of its own points
    refs = [_ex2_closed_form(x, y, 0.5, 1.0, 1.0) for x, y in sets]
    wrong = []

    def work(i):
        x, y = sets[i]
        for _ in range(300):
            vals = prob.f_time(0.5) @ prob.f(x, y)
            if np.abs(vals - refs[i]).max() > 1e-14 * np.abs(refs[i]).max():
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sets))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def test_ex2_forcing_shared_by_threads_stays_correct():
    rng = np.random.default_rng(11)
    sets = rng.uniform(0, 1, size=(4, 2, 200))
    _threads_see_their_own_forcing(manufactured_problem("evolutionary_oseen_ex2"), sets)
