"""Manufactured-problem validation against symbolic oracles."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import sympy

from gwgflow import problems
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
        mine = prob.f(pts[:, 0], pts[:, 1], t)
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
    assert np.all(prob.f(pts, pts, 0.0) == 0.0)
    assert np.all(prob.beta(pts, pts) == 0.0)
    assert np.all(prob.p(pts, pts, 0.0) == 0.0)


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


@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (0.3, 1.9)])
def test_ex2_forcing_matches_closed_form(mu, rho):
    prob = manufactured_problem("evolutionary_oseen_ex2", mu=mu, rho=rho)
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0, 1, size=(2, 40, 6))
    for t in (0.0, 0.013, 0.4, 1.0, 2.5):
        ref = _ex2_closed_form(x, y, t, mu, rho)
        assert np.abs(prob.f(x, y, t) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_ex2_forcing_cache_follows_the_points():
    # the time-independent factors are kept for the last point set only and
    # matched by value, so a call on other points, or on the same array
    # after it was overwritten, never sees stale factors
    prob = manufactured_problem("evolutionary_oseen_ex2")
    rng = np.random.default_rng(3)
    a, b, c = rng.uniform(0, 1, size=(3, 2, 30))
    for t in (0.1, 0.2):
        for pts in (a, b, a):
            ref = _ex2_closed_form(*pts, t, 1.0, 1.0)
            assert np.abs(prob.f(*pts, t) - ref).max() <= 1e-14 * np.abs(ref).max()
    first = prob.f(a[0], a[1], 0.3)
    again = prob.f(a[0].copy(), a[1].copy(), 0.3)   # equal values, new arrays
    assert np.array_equal(first, again)
    x = c[0].copy()
    prob.f(x, c[1], 0.3)
    x[:] = b[0]
    ref = _ex2_closed_form(b[0], c[1], 0.3, 1.0, 1.0)
    assert np.abs(prob.f(x, c[1], 0.3) - ref).max() <= 1e-14 * np.abs(ref).max()


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _count_cache_work(monkeypatch):
    """Lists that grow by one per forming of the ex2 factors and per value comparison.

    The ex2 forcing evaluates the module's convection field only when it
    forms its spatial factors; problems made before this call keep the
    original as their ``beta``, so only those forming steps are counted.
    """
    builds, compares = [], []
    beta, equal = problems._beta_standard, np.array_equal
    monkeypatch.setattr(problems, "_beta_standard", lambda x, y: builds.append(1) or beta(x, y))
    monkeypatch.setattr(np, "array_equal", lambda *args: compares.append(1) or equal(*args))
    return builds, compares


def test_ex2_forcing_cache_hits_read_only_points_by_identity(monkeypatch):
    # the factors of read-only points are found again by identity; a read-only
    # view of a writable array always misses, so writing through its base
    # never returns stale factors, and no call compares point values
    prob = manufactured_problem("evolutionary_oseen_ex2")
    builds, compares = _count_cache_work(monkeypatch)
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0, 1, size=(2, 2, 30))
    x, y = _read_only(a[0]), _read_only(a[1])
    prob.f(x, y, 0.1)
    prob.f(x, y, 0.2)
    assert len(builds) == 1

    base = a[0].copy()
    view = base[:]
    view.flags.writeable = False
    prob.f(view, y, 0.3)
    base[:] = b[0]
    ref = _ex2_closed_form(b[0], a[1], 0.3, 1.0, 1.0)
    assert np.abs(prob.f(view, y, 0.3) - ref).max() <= 1e-14 * np.abs(ref).max()
    assert len(builds) == 3
    assert compares == []


def test_march_forms_the_forcing_factors_on_its_first_step_only(mesh4, mesh8, config_low,
                                                                monkeypatch):
    # a march passes the kernels' read-only quadrature pair on every step, so
    # only its first step, which finds another mesh's points cached, forms the
    # factors, and no step compares point values
    prob = manufactured_problem("evolutionary_oseen_ex2")
    grid = TimeGrid.from_tau(0.5, 0.5 / 8)
    solve_evolutionary(mesh4, config_low, prob, grid)
    builds, compares = _count_cache_work(monkeypatch)
    after_call, f = [], prob.f

    def counted_f(x, y, t):
        vals = f(x, y, t)
        after_call.append(len(builds))
        return vals

    solve_evolutionary(mesh8, config_low, replace(prob, f=counted_f), grid)
    assert after_call == [1] * grid.n_steps
    assert compares == []


def _threads_see_their_own_forcing(prob, sets):
    # study cells on a thread pool share one problem, each cell with its own
    # points; every call must return the forcing of its own points
    refs = [_ex2_closed_form(x, y, 0.5, 1.0, 1.0) for x, y in sets]
    wrong = []

    def work(i):
        x, y = sets[i]
        for _ in range(300):
            if np.abs(prob.f(x, y, 0.5) - refs[i]).max() > 1e-14 * np.abs(refs[i]).max():
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


def test_ex2_forcing_shared_by_threads_stays_correct_on_read_only_points():
    rng = np.random.default_rng(13)
    sets = [(_read_only(x), _read_only(y)) for x, y in rng.uniform(0, 1, size=(4, 2, 200))]
    _threads_see_their_own_forcing(manufactured_problem("evolutionary_oseen_ex2"), sets)
