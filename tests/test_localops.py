import numpy as np
import pytest

import gwgflow.localops
from gwgflow.basis import eval_edge_values, eval_tri_gradients, eval_tri_values
from gwgflow.config import SpaceConfig
from gwgflow.localops import (
    _CLASS_TABLES,
    ElementKernels,
    _project_interior,
    _project_pressure_values,
    _shape_classes,
    _solve_mass,
    project_boundary_traces,
    project_velocity,
)
from gwgflow.mesh import _build_topology, build_uniform_triangulation


def test_project_interior_reproduces_constant(mesh4, config_high):
    interior, _ = project_velocity(
        ElementKernels(mesh4, config_high),
        lambda x, y: np.stack([3.5 + 0.0 * x, -1.0 + 0.0 * y], axis=-1),
    )
    coeff = interior[2]  # P2 coefficients of both components on element 2
    assert coeff[:, 0] == pytest.approx([3.5, -1.0])
    assert np.allclose(coeff[:, 1:], 0.0, atol=1e-13)


def test_project_interior_mean_value(config_low):
    # P0 projection of f = x equals the centroid value
    mesh = build_uniform_triangulation(1)
    ker = ElementKernels(mesh, config_low)
    coeff = _project_pressure_values(ker, ker.qxy[0])
    assert np.allclose(coeff[:, 0], mesh.centroids[:, 0], atol=1e-14, rtol=0)


def test_project_interior_convergence_rate(config_high):
    # projecting sin(x) onto P2: L2 residual decays with observed slope 3
    errs = []
    for n in (4, 8, 16):
        mesh = build_uniform_triangulation(n)
        ker = ElementKernels(mesh, config_high, quad_order=10)
        interior, _ = project_velocity(
            ker, lambda x, y: np.stack([np.sin(x), 0.0 * y], axis=-1)
        )
        vals = np.einsum("ti,tpi->tp", interior[:, 0], ker.Vk)
        diff = vals - np.sin(ker.qp[..., 0])
        errs.append(np.sqrt(np.einsum("tp,tp->", ker.qw, diff**2)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert slopes[-1] == pytest.approx(3.0, abs=0.1)


def test_interior_moments_match_einsum_reference(mesh4, element_tuple):
    # the batched matmul sums the quadrature points in another order than
    # the einsum it replaced: equal to a few ulps of the largest moment
    ker = ElementKernels(mesh4, SpaceConfig(*element_tuple))
    vals = np.stack([np.sin(ker.qp[..., 0]), np.cos(ker.qp[..., 1])], axis=-1)
    ref = np.einsum("tp,tpc,tpi->tci", ker.qw, vals, ker.Vk)
    assert np.abs(ker.interior_moments(vals) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_projection_idempotent(mesh4, config_high):
    # projecting the projection leaves the coefficients unchanged
    ker = ElementKernels(mesh4, config_high)
    interior, traces = project_velocity(
        ker, lambda x, y: np.stack([np.sin(x + y), np.cos(x)], axis=-1)
    )
    vals = np.einsum("tci,tpi->tpc", interior, ker.Vk)
    rhs = np.einsum("tp,tpc,tpi->tci", ker.qw, vals, ker.Vk)
    again = np.linalg.solve(ker.Mk[:, None], rhs[..., None])[..., 0]
    assert np.abs(again - interior).max() < 1e-13

    evals = np.einsum("eca,qa->eqc", traces, ker.Qj)
    erhs = np.einsum("q,eqc,qa->eca", ker.edge_w, evals, ker.Qj)
    tr_again = np.linalg.solve(ker.Mhat, erhs[..., None])[..., 0]
    assert np.abs(tr_again - traces).max() < 1e-13


def test_project_edge_reproduces_polynomials(mesh4, config_high):
    # with j = 1, a constant and a field linear along the edge are reproduced
    ker = ElementKernels(mesh4, config_high)
    (traces,) = project_boundary_traces(
        ker, lambda x, y: np.stack([2.0 + 0 * x, x + 2 * y], axis=-1)[..., None, :]
    )
    c0, cl = traces[0]
    assert c0[0] == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(c0[1:], 0.0, atol=1e-14)
    va, vb = mesh4.vertices[mesh4.edges[mesh4.boundary_edges[0]]]
    s = np.array([0.0, 0.37, 1.0])
    pts = va + s[:, None] * (vb - va)
    vals = eval_edge_values(1, s) @ cl
    assert np.allclose(vals, pts[:, 0] + 2 * pts[:, 1], atol=1e-13)


def test_edge_projector_matches_mass_solve(mesh4, element_tuple):
    # the precomputed (ew * Qj) @ Mhat^-1 against the edge moments followed
    # by a solve with the reference edge mass, on every edge and on the
    # boundary edges alone
    ker = ElementKernels(mesh4, SpaceConfig(*element_tuple))

    def field(x, y, t):
        return np.stack([np.sin(3 * x + t) * y, np.exp(x - y) + t], axis=-1)

    def reference(pts, t):
        vals = field(pts[..., 0], pts[..., 1], t)
        rhs = np.einsum("q,eqc,qa->eca", ker.edge_w, vals, ker.Qj)
        return _solve_mass(ker.Mhat, rhs[..., None], "edge projection")[..., 0]

    for t in (0.0, 0.7):
        _, traces = project_velocity(ker, field, t)
        ref = reference(ker.edge_pts, t)
        assert np.abs(traces - ref).max() <= 1e-14 * np.abs(ref).max()
        (bnd,) = project_boundary_traces(ker, lambda x, y: field(x, y, t)[..., None, :])
        ref = reference(ker.edge_pts[mesh4.boundary_edges], t)
        assert np.abs(bnd - ref).max() <= 1e-14 * np.abs(ref).max()


def test_project_edge_mean_on_diagonal(config_low):
    # j = 0 coefficient of f = x^2 on a diagonal edge is the edge mean a^2/3
    mesh = build_uniform_triangulation(2)
    diag = None
    for e in range(mesh.n_edges):
        va, vb = mesh.vertices[mesh.edges[e]]
        if np.allclose(va, [0, 0]) and np.allclose(vb, [0.5, 0.5]):
            diag = e
    assert diag is not None
    _, traces = project_velocity(
        ElementKernels(mesh, config_low),
        lambda x, y: np.stack([x**2, 0.0 * y], axis=-1),
    )
    assert traces[diag, 0, 0] == pytest.approx(0.25 / 3, abs=1e-14)


def test_weak_gradient_without_mismatch_is_plain_gradient(mesh4, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    ker = ElementKernels(mesh4, cfg)
    dm = ker.dofmap
    rng = np.random.default_rng(7)
    interior = rng.uniform(-1, 1, size=(mesh4.n_elements, 2, ker.dk))
    # choose traces equal to Q_b of the interior trace on every edge of the
    # owner element; this kills the boundary functional on that element
    t = 5
    vloc = np.zeros(ker.nloc)
    vloc[: 2 * ker.dk] = interior[t].reshape(-1)
    for le in range(3):
        qb = np.einsum("ai,ci->ca", ker.E[t, le], interior[t])
        start = 2 * ker.dk + le * 2 * ker.dj
        vloc[start : start + 2 * ker.dj] = qb.reshape(-1)
    delta = np.einsum("qic,c->qi", ker.delta[t], vloc[ker.comp_cols[0]])
    assert np.abs(delta).max() < 1e-12
    W = ker.W[t]
    vals = np.einsum("qpa,ca->pcq", W, vloc[ker.comp_cols])
    plain = np.einsum("pqi,ci->pcq", ker.Gk[t], interior[t])
    assert np.allclose(vals, plain, atol=1e-12)


def test_weak_gradient_of_projected_linear_field(mesh4, element_tuple):
    # w = (y, x): weak gradient of its projection is the constant [[0,1],[1,0]]
    cfg = SpaceConfig(*element_tuple)
    ker = ElementKernels(mesh4, cfg)
    dm = ker.dofmap
    interior, traces = project_velocity(
        ker, lambda x, y: np.stack([y + 0 * x, x + 0 * y], axis=-1)
    )
    vec = dm.velocity_vector(interior, traces)
    vals = np.einsum("tqpa,tca->tpcq", ker.W, vec[dm.elem_vel[:, ker.comp_cols]])
    assert np.abs(vals - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-12


def test_delta_single_edge_hand_value():
    # v0 = 0, v_b = (1, 0) on one edge, l = 0: delta = (|e|/|T|) n in row one
    mesh = build_uniform_triangulation(4)
    cfg = SpaceConfig(1, 0, 0, 0, 0)
    ker = ElementKernels(mesh, cfg)
    t, le = 9, 1
    v = np.zeros(ker.nloc)
    v[2 * ker.dk + le * 2 * ker.dj] = 1.0
    # rows: velocity component; columns: derivative direction (dl = 1)
    coeffs = np.stack(
        [ker.delta[t, :, 0] @ v[ker.comp_cols[c]] for c in range(2)]
    )
    expected = mesh.h_edge[mesh.element_edges[t, le]] / mesh.areas[t]
    normal = ker.normals[t, le]
    assert np.allclose(coeffs[0], expected * normal, atol=1e-12)
    assert np.allclose(coeffs[1], 0.0, atol=1e-13)


def test_weak_divergence_examples(mesh4, element_tuple):
    cfg = SpaceConfig(*element_tuple)
    ker = ElementKernels(mesh4, cfg)
    dm = ker.dofmap
    # v = 0 -> 0
    assert np.allclose(ker.div[0] @ np.zeros(ker.nloc), 0.0)
    # projected (x, y) has weak divergence 2; projected (y, x) divergence 0
    for field, expected in [
        (lambda x, y: np.stack([x + 0 * y, y + 0 * x], axis=-1), 2.0),
        (lambda x, y: np.stack([y + 0 * x, x + 0 * y], axis=-1), 0.0),
    ]:
        interior, traces = project_velocity(ker, field)
        vec = dm.velocity_vector(interior, traces)
        dloc = np.einsum("tdi,ti->td", ker.div, vec[dm.elem_vel])
        vals = np.einsum("td,tpd->tp", dloc, ker.Vm)
        assert np.abs(vals - expected).max() < 1e-12


def test_kernels_shared_edge_sees_single_valued_traces(mesh4, config_high):
    # both elements incident to an edge must integrate the same trace basis:
    # their boundary moment matrices agree up to the outward-normal sign
    ker = ElementKernels(mesh4, config_high)
    interior = np.flatnonzero(mesh4.edge_elements[:, 1] >= 0)
    e = int(interior[3])
    t1, t2 = mesh4.edge_elements[e]
    le1, le2 = mesh4.edge_local_index[e]
    assert np.allclose(ker.normals[t1, le1], -ker.normals[t2, le2], atol=1e-14)
    pts1 = ker.local_e[t1, le1] * mesh4.h_elem[t1] + mesh4.centroids[t1]
    pts2 = ker.local_e[t2, le2] * mesh4.h_elem[t2] + mesh4.centroids[t2]
    assert np.allclose(pts1, pts2, atol=1e-14)


@pytest.mark.parametrize("degrees", [(1, 0, 1, 0, 0), (2, 1, 1, 1, 1), (3, 1, 2, 0, 1)])
def test_prefix_sliced_tables_equal_direct_evaluation(degrees):
    # every class is evaluated on its representative, with its h_elem; on
    # n = 5, 6, 7 congruent elements' h_elem differ in the last bit
    k, _, l, m, n = degrees
    for cells in (4, 5, 6, 7):
        mesh = build_uniform_triangulation(cells)
        ker = ElementKernels(mesh, SpaceConfig(*degrees))
        h = mesh.h_elem[ker.reps][ker.shape_class, None]
        for d, V, V_e in ((k, ker.Vk, ker.Vk_e), (l, ker.Vl, ker.Vl_e),
                          (m, ker.Vm, ker.Vm_e), (n, ker.Vn, ker.Vn_e)):
            assert np.array_equal(V, eval_tri_values(d, ker.local))
            assert np.array_equal(V_e, eval_tri_values(d, ker.local_e))
        assert np.array_equal(ker.Gk, eval_tri_gradients(k, ker.local, h))
        assert np.array_equal(ker.Gm, eval_tri_gradients(m, ker.local, h))


@pytest.mark.parametrize("cells", [4, 5, 6, 7])
def test_congruent_elements_share_h_elem_to_roundoff(cells):
    # off powers of two, congruent elements' h_elem differ in the last bit
    # (norms of differences of linspace coordinates); the kernels use the
    # representative's, which must stay within roundoff of every member's
    mesh = build_uniform_triangulation(cells)
    ker = ElementKernels(mesh, SpaceConfig(1, 0, 1, 0, 0))
    rep_h = mesh.h_elem[ker.reps][ker.shape_class]
    assert np.all(np.abs(mesh.h_elem - rep_h) <= 1e-15 * rep_h)


# -- shape classes ------------------------------------------------------------


def _jittered_mesh(n: int, seed: int = 0):
    """The uniform n x n mesh with every interior vertex moved by up to h/5."""
    mesh = build_uniform_triangulation(n)
    verts = mesh.vertices.copy()
    inner = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    verts[inner] += rng.uniform(-0.2, 0.2, size=(inner.sum(), 2)) / n
    return _build_topology(verts, mesh.elements)


def _renumbered_mesh(n: int, seed: int = 0):
    """The uniform n x n mesh with its vertices numbered in random order.

    The stored edge directions, (min, max) vertex number, then differ
    between congruent elements, and with them the trace basis on an edge.
    """
    mesh = build_uniform_triangulation(n)
    perm = np.random.default_rng(seed).permutation(mesh.vertices.shape[0])
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    return _build_topology(verts, perm[mesh.elements])


def _two_sizes_mesh(n: int):
    """The uniform n x n mesh beside a copy of it at half the size."""
    mesh = build_uniform_triangulation(n)
    verts = np.concatenate([mesh.vertices, 0.5 * mesh.vertices + [2.0, 0.0]])
    nv = mesh.vertices.shape[0]
    return _build_topology(verts, np.concatenate([mesh.elements, mesh.elements + nv]))


def _single_element_mesh(mesh, t: int):
    """Element ``t`` alone, its local edges stored in the same directions.

    The vertices are renumbered by the rank of their global numbers, so each
    local edge runs along its stored (min, max) direction exactly when it
    does in ``mesh``.
    """
    glob = mesh.elements[t]
    rank = np.argsort(np.argsort(glob))
    verts = np.empty((3, 2))
    verts[rank] = mesh.vertices[glob]
    return _build_topology(verts, rank[None, :])


@pytest.mark.parametrize("n", [1, 4, 16])
def test_uniform_mesh_has_two_shape_classes(n, element_tuple):
    ker = ElementKernels(build_uniform_triangulation(n), SpaceConfig(*element_tuple))
    assert ker.reps.size == 2
    # the lower and the upper triangle of each cell, by element parity
    assert np.array_equal(ker.shape_class, np.arange(2 * n * n) % 2)


def test_similar_elements_of_two_sizes_are_four_classes(element_tuple):
    # the scaled copy has the same centroid-relative vertices over h_elem
    ker = ElementKernels(_two_sizes_mesh(2), SpaceConfig(*element_tuple))
    group = np.arange(16) % 2 + 2 * (np.arange(16) >= 8)   # parity and size
    assert ker.reps.size == 4
    assert np.array_equal(ker.shape_class, ker.shape_class[[0, 1, 8, 9]][group])


def test_jittered_mesh_has_one_shape_class_per_element(element_tuple):
    mesh = _jittered_mesh(4)
    ker = ElementKernels(mesh, SpaceConfig(*element_tuple))
    assert np.array_equal(np.sort(ker.shape_class), np.arange(mesh.n_elements))


def test_edge_directions_split_congruent_elements(element_tuple):
    mesh = _renumbered_mesh(4)
    ker = ElementKernels(mesh, SpaceConfig(*element_tuple))
    # congruent by parity, as on the uniform mesh, but split by edge direction
    along = mesh.edges[mesh.element_edges, 0] == mesh.elements
    keys = np.column_stack([np.arange(mesh.n_elements) % 2, along])
    assert 2 < ker.reps.size == np.unique(keys, axis=0).shape[0]


@pytest.mark.parametrize("which", ["uniform", "jittered", "renumbered", "two_sizes"])
def test_gathered_tables_equal_per_element_evaluation(which, element_tuple):
    mesh = {"uniform": build_uniform_triangulation, "jittered": _jittered_mesh,
            "renumbered": _renumbered_mesh, "two_sizes": _two_sizes_mesh}[which](4)
    config = SpaceConfig(*element_tuple)
    ker = ElementKernels(mesh, config)
    for t in range(mesh.n_elements):
        ref = ElementKernels(_single_element_mesh(mesh, t), config)
        pairs = [(getattr(ker, name)[t], getattr(ref, name)[0]) for name in _CLASS_TABLES]
        pairs += [(ker.qp[t], ref.qp[0])]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("mesh", [_jittered_mesh, _renumbered_mesh], ids=["jittered", "renumbered"])
def test_class_mass_inverse_matches_per_element_solve(mesh, element_tuple):
    # one inverse per shape class, applied by matmul, against a LAPACK solve
    # with every element's gathered mass matrix, on meshes of many classes
    ker = ElementKernels(mesh(6), SpaceConfig(*element_tuple))
    assert ker.reps.size > 2
    x, y = ker.qxy
    vals = np.stack([np.sin(3 * x) * y, np.exp(x - y)], axis=-1)
    want = np.linalg.solve(ker.Mk[:, None], ker.interior_moments(vals)[..., None])[..., 0]
    got = _project_interior(ker, vals)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    pvals = np.cos(2 * x + y)
    rhs = np.einsum("tp,tp,tpi->ti", ker.qw, pvals, ker.Vn)
    want = np.linalg.solve(ker.Mn, rhs[..., None])[..., 0]
    got = _project_pressure_values(ker, pvals)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_singular_class_mass_matrix_is_named(config_high):
    # the projections invert the class mass matrices, so those are corrupted
    ker = ElementKernels(_renumbered_mesh(4), config_high)
    ker.classes.Mk[1] = 0.0
    vals = np.ones(ker.qp.shape)
    with pytest.raises(np.linalg.LinAlgError, match="degenerate element geometry"):
        _project_interior(ker, vals)
    ker.classes.Mn[-1, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="degenerate element geometry"):
        _project_pressure_values(ker, vals[..., 0])


@pytest.mark.parametrize("which", ["uniform", "jittered", "renumbered", "two_sizes"])
def test_shape_classes_match_unique_rows_reference(which):
    # the lexsort grouping against np.unique of the key rows it replaced:
    # same classes, numbered in the same order, with the same representatives
    mesh = {"uniform": build_uniform_triangulation, "jittered": _jittered_mesh,
            "renumbered": _renumbered_mesh, "two_sizes": _two_sizes_mesh}[which](6)
    h = mesh.h_elem
    rel = (mesh.vertices[mesh.elements] - mesh.centroids[:, None, :]) / h[:, None, None]
    along = mesh.edges[mesh.element_edges, 0] == mesh.elements
    key = np.column_stack([np.round(rel.reshape(-1, 6), 12), np.round(np.log(h), 12), along])
    _, reps, shape_class = np.unique(key, axis=0, return_index=True, return_inverse=True)
    got_class, got_reps = _shape_classes(mesh)
    assert np.array_equal(got_class, shape_class.reshape(-1))
    assert np.array_equal(got_reps, reps)


def test_class_tables_are_gathered_when_first_read(mesh4, element_tuple):
    ker = ElementKernels(mesh4, SpaceConfig(*element_tuple))
    assert not set(_CLASS_TABLES) & set(vars(ker))
    assert all(len(getattr(ker.classes, name)) == ker.reps.size for name in _CLASS_TABLES)
    Mk = ker.Mk
    assert ker.Mk is Mk and np.array_equal(Mk, ker.classes.Mk[ker.shape_class])
    with pytest.raises(AttributeError, match="no attribute 'Mx'"):
        ker.Mx


def test_basis_tables_are_evaluated_once_per_shape_class(element_tuple, monkeypatch):
    # a per-element build would evaluate the bases at nT x npts points
    counts = {"values": 0, "gradients": 0}

    def counted(kind, fn):
        def wrapper(degree, pts, *args):
            counts[kind] += pts[..., 0].size
            return fn(degree, pts, *args)
        return wrapper

    monkeypatch.setattr(gwgflow.localops, "eval_tri_values", counted("values", eval_tri_values))
    monkeypatch.setattr(
        gwgflow.localops, "eval_tri_gradients", counted("gradients", eval_tri_gradients)
    )
    ker = ElementKernels(build_uniform_triangulation(16), SpaceConfig(*element_tuple))
    n_classes, npts, nq = ker.reps.size, ker.tri_rule.weights.size, ker.edge_rule.weights.size
    assert n_classes == 2
    assert counts == {"values": n_classes * (npts + 3 * nq), "gradients": n_classes * npts}
