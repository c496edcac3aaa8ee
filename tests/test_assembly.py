import numpy as np
import pytest
import scipy.sparse as sp

from gwgflow import assembly
from gwgflow.assembly import (
    apply_dirichlet,
    assemble_bilinear,
    assemble_load,
    build_saddle_system,
    constrain_system,
)
from gwgflow.config import SpaceConfig
from gwgflow.localops import (
    _CLASS_TABLES,
    ElementKernels,
    _project_pressure_values,
    project_velocity,
)
from gwgflow.mesh import build_uniform_triangulation
from gwgflow.problems import PROBLEM_NAMES, manufactured_problem
from test_localops import _jittered_mesh


def _setup(mesh, tup, **params):
    cfg = SpaceConfig(*tup, **params)
    ker = ElementKernels(mesh, cfg)
    return cfg, ker, ker.dofmap


def test_unknown_form_and_missing_beta(mesh4, config_low):
    ker = ElementKernels(mesh4, config_low)
    with pytest.raises(ValueError):
        assemble_bilinear("advection", ker)
    with pytest.raises(ValueError):
        assemble_bilinear("convection", ker)


def test_nonfinite_convection_field_raises(mesh4, config_low):
    ker = ElementKernels(mesh4, config_low)

    def beta(x, y):
        return np.full(np.shape(x) + (2,), np.inf)

    with pytest.raises(ValueError, match="beta"):
        assemble_bilinear("convection", ker, beta)


def test_dof_counts(mesh8, element_tuple):
    cfg, ker, dm = _setup(mesh8, element_tuple)
    k, j = cfg.k, cfg.j
    dk, dj = (k + 1) * (k + 2) // 2, j + 1
    assert dm.n_velocity == 2 * (mesh8.n_elements * dk + mesh8.n_edges * dj)
    assert dm.n_pressure == mesh8.n_elements * ((cfg.n + 1) * (cfg.n + 2) // 2)


def test_s1_vanishes_on_matching_traces(mesh4, element_tuple):
    # u with u_b = Q_b u0 on every edge lies in the stabilizer kernel.
    # Build it from a globally affine field, whose edge projection is
    # single-valued from both sides.
    cfg, ker, dm = _setup(mesh4, element_tuple)
    S1 = assemble_bilinear("s1", ker)
    interior, traces = project_velocity(
        ker, lambda x, y: np.stack([1.0 + 2 * x - y, 0.5 * x + y], axis=-1)
    )
    vec = dm.velocity_vector(interior, traces)
    assert np.abs(S1 @ vec).max() < 1e-12


def test_s1_and_s2_symmetric_psd(mesh4, element_tuple):
    cfg, ker, dm = _setup(mesh4, element_tuple, sigma=1, alpha=1.0)
    S1 = assemble_bilinear("s1", ker)
    S2 = assemble_bilinear("s2", ker)
    for S in (S1, S2):
        assert abs(S - S.T).max() < 1e-13
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(S.shape[0])
            assert v @ (S @ v) >= -1e-10


def test_s2_empty_when_sigma_zero(mesh4, config_low):
    S2 = assemble_bilinear("s2", ElementKernels(mesh4, config_low))
    assert S2.nnz == 0


def test_s2_kills_continuous_pressures_only(mesh4):
    cfg, ker, dm = _setup(mesh4, (2, 1, 1, 1, 1), sigma=1)
    S2 = assemble_bilinear("s2", ker)
    x, y = ker.qxy
    smooth = _project_pressure_values(ker, 1.0 + 2 * x - 3 * y).reshape(-1)
    assert np.abs(S2 @ smooth).max() < 1e-12
    rng = np.random.default_rng(1)
    rough = rng.standard_normal(dm.n_pressure)
    assert rough @ (S2 @ rough) > 1e-8


def test_mass_block_spd_on_interior(mesh4, element_tuple):
    cfg, ker, dm = _setup(mesh4, element_tuple)
    M = assemble_bilinear("mass", ker)
    ni = mesh4.n_elements * 2 * ker.dk
    Mi = M[:ni][:, :ni].toarray()
    assert np.allclose(Mi, Mi.T, atol=1e-14)
    assert np.linalg.eigvalsh(Mi)[0] > 0
    # no coupling into trace unknowns
    assert M[ni:].nnz == 0 and M[:, ni:].nnz == 0
    # rho Mk on each component of each element, exactly
    ref = sp.block_diag([np.kron(np.eye(2), cfg.rho * Mk) for Mk in ker.Mk]).toarray()
    assert np.array_equal(Mi, ref)


def test_divergence_of_constant_pressure_vanishes_on_v0(mesh4, element_tuple):
    # B^T applied to the constant pressure, restricted to zero-trace
    # velocities, telescopes to zero
    cfg, ker, dm = _setup(mesh4, element_tuple)
    B = assemble_bilinear("divergence", ker)
    const = np.zeros(dm.n_pressure)
    const[dm.elem_pres[:, 0]] = 1.0
    g = B.T @ const
    assert np.abs(g[dm.free_dofs]).max() < 1e-12


def test_energy_kernel_positive(mesh4, element_tuple):
    # viscous + s1 restricted to the zero-trace subspace has trivial kernel
    cfg, ker, dm = _setup(mesh4, element_tuple)
    K = assemble_bilinear("viscous", ker)
    S1 = assemble_bilinear("s1", ker)
    E = (K + S1)[dm.free_dofs][:, dm.free_dofs].toarray()
    lam = np.linalg.eigvalsh(E)[0]
    assert lam > 1e-10


def test_load_zero_and_constant(mesh4, config_low):
    zero = assemble_load(
        ElementKernels(mesh4, config_low),
        lambda x, y: np.zeros(np.broadcast(x, y).shape + (1, 2)),
    )
    assert zero.shape == (1, ElementKernels(mesh4, config_low).dofmap.n_interior)
    assert np.all(zero == 0)

    # f = (1, 0), k = 0: each interior entry equals the element area
    ker = ElementKernels(mesh4, SpaceConfig(0, 0, 0, 0, 0))
    vec = assemble_load(
        ker, lambda x, y: np.stack([np.ones_like(x), np.zeros_like(y)], axis=-1)[..., None, :]
    )[0]
    dm = ker.dofmap
    first = vec[dm.elem_vel[:, 0]]
    assert np.allclose(first, mesh4.areas, atol=1e-14)
    assert np.allclose(vec[dm.elem_vel[:, 1]], 0.0, atol=1e-15)


def test_load_matches_refined_quadrature_oracle(mesh8, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("steady_oseen_ex1")
    base = assemble_load(ElementKernels(mesh8, cfg), prob.f)
    fine = ElementKernels(mesh8, cfg, quad_order=min(cfg.quad_order + 8, 20))
    oracle = assemble_load(fine, prob.f)
    assert np.abs(base - oracle).max() < 1e-10


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_separable_load_equals_moments_of_the_summed_forcing(mesh4, element_tuple, name):
    # the load is linear in f, so scaling the loads of the terms gives the
    # moments of the forcing summed at the points, to roundoff
    ker = ElementKernels(mesh4, SpaceConfig(*element_tuple))
    prob = manufactured_problem(name)
    loads = assemble_load(ker, prob.f)
    for t in (0.0, 0.3, 1.7):
        summed = prob.f_time(t) @ prob.f(*ker.qxy)
        ref = ker.interior_moments(summed).reshape(-1)
        assert np.abs(prob.f_time(t) @ loads - ref).max() <= 1e-14 * max(np.abs(ref).max(), 1)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_separable_traces_equal_projection_of_the_summed_data(mesh4, element_tuple, name):
    # Q_b is linear in g, so scaling the traces of the terms gives the
    # projection of the boundary data summed at the points, to roundoff
    ker = ElementKernels(mesh4, SpaceConfig(*element_tuple))
    prob = manufactured_problem(name)
    system = build_saddle_system(ker, prob.beta)
    terms = apply_dirichlet(system, prob.g)
    assert terms.shape == (1, ker.dofmap.boundary_dofs.size)
    for t in (0.0, 0.3, 1.7):
        summed = prob.g_time(t) @ prob.g(*ker.boundary_xy)
        ref = np.matmul(summed.swapaxes(-1, -2), ker.edge_projector).reshape(-1)
        assert np.abs(prob.g_time(t) @ terms - ref).max() <= 1e-15 * max(np.abs(ref).max(), 1)


@pytest.mark.parametrize("mu", [1.0, 1e-3])
def test_system_peclet_number(mesh4, mu):
    # the largest mesh Peclet number max |beta| h_T / (2 mu) over the points
    # at which the convection is integrated; zero without convection
    ker = ElementKernels(mesh4, SpaceConfig(1, 0, 1, 0, 0, mu=mu))
    beta = manufactured_problem("steady_oseen_ex1").beta(*ker.qxy)
    speed = np.sqrt((beta**2).sum(axis=-1)).max(axis=1)
    expected = (speed * mesh4.h_elem).max() / (2 * mu)
    system = build_saddle_system(ker, manufactured_problem("steady_oseen_ex1").beta)
    assert system.peclet == pytest.approx(expected, rel=1e-15)
    assert build_saddle_system(ker, manufactured_problem("stokes_patch").beta).peclet == 0.0


def test_apply_dirichlet_values(mesh4, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("steady_oseen_ex1")
    system = build_saddle_system(ElementKernels(mesh4, cfg), prob.beta)

    # homogeneous data eliminates to zero values
    zero = apply_dirichlet(system, lambda x, y: np.zeros(np.broadcast(x, y).shape + (1, 2)))
    assert np.all(zero == 0.0)

    # constants are reproduced exactly by the trace projection
    vals = apply_dirichlet(
        system, lambda x, y: np.ones(np.broadcast(x, y).shape + (1, 2))
    )[0].reshape(-1, 2, cfg.j + 1)
    assert np.allclose(vals[:, :, 0], 1.0, atol=1e-14)
    if cfg.j >= 1:
        assert np.allclose(vals[:, :, 1:], 0.0, atol=1e-14)

    # the exact velocity of the benchmark vanishes on y = 0
    vals = (prob.g_time(0.0) @ apply_dirichlet(system, prob.g)).reshape(-1, 2, cfg.j + 1)
    for idx, e in enumerate(mesh4.boundary_edges):
        va, vb = mesh4.vertices[mesh4.edges[e]]
        if va[1] == 0.0 and vb[1] == 0.0:
            assert np.abs(vals[idx]).max() < 1e-14


def test_constraint_row(mesh4, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    ker = ElementKernels(mesh4, cfg)
    prob = manufactured_problem("steady_oseen_ex1")
    system = build_saddle_system(ker, prob.beta)
    constrain_system(system)
    c = system.mean_vector
    const = np.zeros(ker.dofmap.n_pressure)
    const[ker.dofmap.elem_pres[:, 0]] = 1.0
    assert c @ const == pytest.approx(1.0, abs=1e-12)  # area of the domain
    x, y = ker.qxy
    coeffs = _project_pressure_values(ker, (2 * x - 1) * (2 * y - 1)).reshape(-1)
    assert abs(c @ coeffs) < 1e-12


def test_expand_before_constrain_system_names_it(mesh4, config_low):
    # expand reads mean_vector, which only constrain_system records
    ker = ElementKernels(mesh4, config_low)
    system = build_saddle_system(ker, manufactured_problem("steady_oseen_ex1").beta)
    x, traces = np.zeros(system.K_dofs.size), np.zeros(ker.dofmap.boundary_dofs.size)
    with pytest.raises(ValueError, match=r"constrain_system\(system\)"):
        system.expand(x, traces)
    constrain_system(system)
    vel, pres = system.expand(x, traces)
    assert not vel.any() and not pres.any()


def test_operator_has_no_dense_row(mesh8, element_tuple):
    # one pinned pressure DOF and no bordering row: every row and column of
    # the operator couples at most two elements' local DOFs
    ker = ElementKernels(mesh8, SpaceConfig(*element_tuple))
    dm = ker.dofmap
    prob = manufactured_problem("steady_oseen_ex1")
    system = build_saddle_system(ker, prob.beta)
    load = prob.f_time(0.0) @ assemble_load(ker, prob.f)
    system.operator(load, prob.g_time(0.0) @ apply_dirichlet(system, prob.g))
    K = system.matrix()
    n = dm.free_dofs.size + dm.n_pressure - 1
    assert K.shape == (n, n)
    assert np.diff(K.tocsr().indptr).max() <= 2 * ker.nloc
    assert np.diff(K.tocsc().indptr).max() <= 2 * ker.nloc


def test_assembly_deterministic_rebuild(mesh4, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    prob = manufactured_problem("steady_oseen_ex1")
    first = build_saddle_system(ElementKernels(mesh4, cfg), prob.beta)
    second = build_saddle_system(ElementKernels(mesh4, cfg), prob.beta)
    assert np.array_equal(first.A_local, second.A_local)
    assert np.array_equal(first.B_local, second.B_local)
    assert (first.matrix() != second.matrix()).nnz == 0
    first_load = assemble_load(first.kernels, prob.f)
    assert np.array_equal(first_load, assemble_load(second.kernels, prob.f))


def _full_layout(ker, W):
    """The component-local weak-gradient table on the full local layout.

    Shape (nT, np, 2, 2, nloc): (element, point, component, derivative, DOF).
    """
    nT, _, npts, _ = W.shape
    full = np.zeros((nT, npts, 2, 2, ker.nloc))
    for c in range(2):
        full[:, :, c, :, ker.comp_cols[c]] = W.transpose(3, 0, 2, 1)
    return full


@pytest.mark.parametrize("chunk", [7, 2048])
def test_velocity_block_equals_sum_of_forms(mesh4, element_tuple, chunk):
    cfg, ker, dm = _setup(mesh4, element_tuple, mu=0.7, rho=1.3)
    beta = manufactured_problem("steady_oseen_ex1").beta
    block = assembly.assemble_velocity_block(ker, beta)
    forms = (
        assemble_bilinear("viscous", ker)
        + assemble_bilinear("convection", ker, beta)
        + assemble_bilinear("s1", ker)
    )
    scale = np.abs(forms).max()
    assert np.abs(block - forms).max() <= 1e-13 * scale
    # independent reference: the full-layout weak gradient and interior
    # values contracted by einsum, as one (nloc, nloc) matrix per element
    W = _full_layout(ker, ker.W)
    V0 = np.zeros((mesh4.n_elements, ker.qw.shape[1], 2, ker.nloc))
    for c in range(2):
        V0[:, :, c, c * ker.dk : (c + 1) * ker.dk] = ker.Vk
    bvals = beta(ker.qp[..., 0], ker.qp[..., 1])
    local = cfg.mu * np.einsum("tp,tpcqi,tpcqj->tij", ker.qw, W, W)
    wbeta = np.einsum("tpcqi,tpq->tpci", W, bvals)
    local += cfg.rho * np.einsum("tp,tpcj,tpci->tij", ker.qw, wbeta, V0)
    for c in range(2):
        local[:, ker.comp_cols[c][:, None], ker.comp_cols[c]] += ker.s1
    # the reference is scattered in groups of `chunk` elements and summed, so
    # the one-pass block must not depend on how the elements are grouped
    ref = sp.csr_matrix(block.shape)
    for start in range(0, mesh4.n_elements, chunk):
        loc = local[start : start + chunk]
        dofs = dm.elem_vel[start : start + chunk]
        rows = np.broadcast_to(dofs[:, :, None], loc.shape).ravel()
        cols = np.broadcast_to(dofs[:, None, :], loc.shape).ravel()
        ref = ref + sp.coo_matrix((loc.ravel(), (rows, cols)), shape=block.shape)
    assert np.abs(block - ref).max() <= 1e-13 * scale


def test_build_saddle_system_gathers_no_class_table(mesh4, element_tuple):
    # the element matrices are formed per shape class, so no table is
    # gathered to the elements only to be indexed back to the classes; with
    # sigma = 1 the pressure jumps read the edge values of each class too
    for sigma in (0, 1):
        _, ker, _ = _setup(mesh4, element_tuple, sigma=sigma)
        build_saddle_system(ker, manufactured_problem("steady_oseen_ex1").beta)
        assert not set(_CLASS_TABLES) & set(vars(ker))


@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
@pytest.mark.parametrize("sigma", [0, 1])
@pytest.mark.parametrize("mesh_kind", ["uniform4", "jittered6"])
def test_pinned_K_equals_sliced_global_blocks(element_tuple, kind, sigma, mesh_kind):
    # independent of the element layout: [[A_ff, -B_f^T], [B_f, S2]] sliced
    # from the global scatters of the single forms, with the row and column
    # of pressure DOF elem_pres[0, 0] deleted, then put in the K order: the
    # interior velocity, with sigma = 0 the non-constant pressure modes, then
    # the free traces and the other kept pressures, each in global order
    mesh = build_uniform_triangulation(4) if mesh_kind == "uniform4" else _jittered_mesh(6)
    _, ker, dm = _setup(mesh, element_tuple, sigma=sigma)
    tau = 0.1 if kind == "backward_euler" else None
    prob = manufactured_problem("steady_oseen_ex1" if tau is None else "evolutionary_oseen_ex2")
    system = build_saddle_system(ker, prob.beta, tau)
    load = prob.f_time(tau or 0.0) @ assemble_load(ker, prob.f)
    g = prob.g_time(tau or 0.0) @ apply_dirichlet(system, prob.g)
    rhs, K = system.operator(load, g), system.matrix()

    free, bnd = dm.free_dofs, dm.boundary_dofs
    keep = np.delete(np.arange(dm.n_pressure), dm.elem_pres[0, 0])
    A = assembly.assemble_velocity_block(ker, prob.beta)
    if tau is not None:
        A = A + assemble_bilinear("mass", ker) / tau
    B = assemble_bilinear("divergence", ker)[keep]
    S2 = assemble_bilinear("s2", ker)[keep][:, keep]
    B_f = B[:, free]
    ref = sp.bmat([[A[free][:, free], -B_f.T], [B_f, S2]], format="csr")
    nv, nI = dm.n_velocity, dm.n_interior
    modes = np.sort(dm.elem_pres[:, 1:], axis=None) if sigma == 0 else np.array([], int)
    order = np.concatenate([free[:nI], nv + modes, free[nI:], nv + np.setdiff1d(keep, modes)])
    at = np.searchsorted(np.concatenate([free, nv + keep]), order)  # order in ref's numbering
    assert np.array_equal(system.K_dofs, order)
    ref = ref[at][:, at]
    scale = abs(ref).max()
    assert abs(K - ref).max() <= 1e-14 * scale
    ref.eliminate_zeros()
    ref.sort_indices()
    K.sort_indices()
    assert np.array_equal(K.indptr, ref.indptr) and np.array_equal(K.indices, ref.indices)
    assert np.all(K.data != 0)
    # the element-by-element product, with no K built
    x = np.random.default_rng(0).standard_normal(K.shape[0])
    assert np.abs(system.apply(x) - ref @ x).max() <= 1e-14 * np.abs(ref @ x).max()

    load = np.concatenate([load, np.zeros(nv - nI)])  # the traces take no load
    expected = np.concatenate([load[free] - A[free][:, bnd] @ g, -(B[:, bnd] @ g)])[at]
    assert np.abs(rhs - expected).max() <= 1e-14 * np.abs(expected).max()
