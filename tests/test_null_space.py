"""The null-space factor of the P1 Schur complement: its basis, its tree and its gate."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gwgflow import solver
from gwgflow.config import SpaceConfig
from gwgflow.mesh import build_uniform_triangulation
from gwgflow.problems import manufactured_problem
from gwgflow.solver import TimeGrid, _null_space_lu, solve_evolutionary, solve_steady
from test_localops import _jittered_mesh, _renumbered_mesh
from test_solver import _system

SIZES = [2, 3, 4, 6, 8, 16]
# the tuples with P0 traces and pressures, m = 0 and sigma = 0: the gate takes them
TAKEN = [(1, 0, 1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, 2, 0, 0)]


def _factor(kind, n, config=SpaceConfig(1, 0, 1, 0, 0)):
    system, step = _system(kind, build_uniform_triangulation(n), config)
    S = system.reduced_blocks()[-1]
    return system, S, _null_space_lu(system, S)


def _blocks(factor, S):
    # B and Z of the factor, in S's numbering: nk free traces, then the kept
    # pressures
    nk = factor.S_tt.shape[0]
    return S[nk:, :nk], factor.ZC[:nk]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_stream_function_basis_spans_the_null_space_of_B(kind, n):
    # a tangential column per free edge and a stream-function column per
    # interior vertex: B Z is exactly zero, and Z has the dimension of ker B
    # (B has full row rank nT - 1) and full column rank
    system, S, factor = _factor(kind, n)
    B, Z = _blocks(factor, S)
    assert (B @ Z).nnz == 0
    mesh = system.kernels.mesh
    n_free = mesh.n_edges - mesh.boundary_edges.size
    assert Z.shape == (2 * n_free, 2 * n_free - (mesh.n_elements - 1))
    if n <= 4:
        assert np.linalg.matrix_rank(Z.toarray()) == Z.shape[1]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_element_tree_reaches_every_element(kind, n, monkeypatch):
    # every element but the pinned root is a node; in the preorder each node
    # heads the run of its subtree, and the root's subtrees tile the order
    trees, element_tree = [], solver._element_tree
    monkeypatch.setattr(solver, "_element_tree",
                        lambda *args: trees.append(element_tree(*args)) or trees[-1])
    system, _, factor = _factor(kind, n)
    (_, pre, lo, hi, node_edge), m = trees[0], system.kernels.mesh.n_elements - 1
    assert np.array_equal(np.sort(pre), np.arange(m))
    assert np.array_equal(lo[pre], np.arange(m))
    assert np.all(hi > lo) and hi.max() == m
    assert np.array_equal(factor.pre, pre) and np.array_equal(factor.lo, lo)
    # ND = N diag(a) (E_hi - E_lo) lies on the nodes' tree edges, in columns
    # lo and hi of each, and no edge serves two nodes
    assert np.unique(node_edge).size == m and factor.ND.shape[1] == m + 1
    node = np.full(factor.ND.shape[0] // 2, -1)
    node[node_edge] = np.arange(m)
    rows, cols = factor.ND.nonzero()
    j = node[rows // 2]
    assert (j >= 0).all() and ((cols == lo[j]) | (cols == hi[j])).all()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_tree_sweeps_equal_dense_solves(kind, n):
    # the particular solution t0(g) = ND [0, cumsum(g[pre])] meets B t0 = g;
    # the pressure sweep p(r) = cumsum(EA N^T r)[lo] is its adjoint, with
    # EA N^T = -ND^T exactly, and so undoes B^T: p(B^T q) = q
    _, S, factor = _factor(kind, n)
    B, _ = _blocks(factor, S)
    nz = factor.R.c.size
    N_T = factor.ZN_T[nz:]
    assert (factor.EA @ N_T != -factor.ND.T).nnz == 0
    rng = np.random.default_rng(n)
    g, q = rng.standard_normal((2, B.shape[0]))
    r = rng.standard_normal(B.shape[1])

    def p(r):
        return np.cumsum(factor.EA @ (N_T @ r))[factor.lo]

    t0 = factor.ND @ np.r_[0, np.cumsum(g[factor.pre])]
    assert np.linalg.norm(B @ t0 - g) <= 1e-14 * np.linalg.norm(g)
    assert abs(p(r) @ g - r @ t0) <= 1e-14 * np.linalg.norm(p(r)) * np.linalg.norm(g)
    assert np.linalg.norm(p(B.T @ q) - q) <= 1e-14 * np.linalg.norm(q)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_null_space_solve_equals_threshold_solve(kind, n):
    _assert_equals_threshold_solve(*_factor(kind, n)[1:], seed=n)


def _assert_equals_threshold_solve(S, factor, seed=0):
    b = np.random.default_rng(seed).standard_normal(S.shape[0])
    ref = solver._threshold_pivot_lu(S).solve(b)
    assert np.linalg.norm(factor.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("element", TAKEN, ids=lambda t: "".join(map(str, t)))
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_taken_schur_complement_is_a_saddle_point(kind, element, n):
    system, S, factor = _factor(kind, n, SpaceConfig(*element))
    assert factor is not None
    _assert_saddle_point(system, S)
    _assert_equals_threshold_solve(S, factor)


@pytest.mark.parametrize("mesh", [_jittered_mesh, _renumbered_mesh], ids=["jittered", "renumbered"])
@pytest.mark.parametrize("element", TAKEN, ids=lambda t: "".join(map(str, t)))
def test_zero_divergence_degree_gives_a_saddle_point_on_any_mesh(element, mesh):
    # the gate reads the tuple, not the mesh: with m = 0 the weak divergence
    # has no interior term on these meshes too (their B Z = 0 check fails by
    # rounding, and the threshold factor of S takes them)
    system, _ = _system("steady", mesh(6), SpaceConfig(*element))
    _assert_saddle_point(system, system.reduced_blocks()[-1])


def _assert_saddle_point(system, S):
    # a B_local row with no interior-velocity entry makes S exactly
    # [[S_tt, -B^T], [B, 0]], the facts the gate no longer reads from S
    dm = system.kernels.dofmap
    nk = dm.free_dofs.size - dm.n_interior
    assert not system.B_local[..., : 2 * system.kernels.dk].any()
    assert (S[:nk, nk:] != -S[nk:, :nk].T).nnz == 0 and S[nk:, nk:].nnz == 0


@pytest.mark.parametrize(
    "element, sigma",
    [((1, 0, 1, 0, 0), 1), ((2, 1, 1, 1, 1), 0), ((2, 1, 1, 1, 1), 1), ((1, 1, 1, 1, 0), 0),
     ((1, 0, 1, 1, 0), 0), ((1, 0, 1, 2, 0), 0)],
    ids=["P1-sigma1", "P2-sigma0", "P2-sigma1", "11110-sigma0", "10110-sigma0", "10120-sigma0"],
)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_gate_refuses_other_schur_complements(kind, element, sigma):
    # sigma = 1 fills the pressure block; (2,1,1,1,1) and (1,1,1,1,0) have
    # P1 traces, and with m > 0 the weak divergence has an interior term
    assert _factor(kind, 4, SpaceConfig(*element, sigma=sigma))[2] is None


@pytest.mark.parametrize("n", [4, 5])
def test_gate_refuses_a_positive_divergence_degree_on_every_mesh(n):
    # (0,0,1,1,0)'s computed interior row is rounding at n = 4 and happens
    # to be zero at n = 5; the tuple, not that rounding, refuses it
    assert _factor("steady", n, SpaceConfig(0, 0, 1, 1, 0))[2] is None


class _RecordedLU:
    """A SuperLU factor that records how it is solved with, and its residual."""

    def __init__(self, lu, A, log):
        self._lu, self._A, self._log = lu, A, log

    def solve(self, rhs, *args, **kwargs):
        x = self._lu.solve(rhs, *args, **kwargs)
        res = np.linalg.norm(self._A @ x - rhs) / np.linalg.norm(rhs)
        self._log.append((args, kwargs, res))
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.mark.parametrize("kind", ["steady", "evolutionary"])
def test_one_factorization_and_no_transposed_solve(kind, monkeypatch):
    # a P1 solve, one-shot or a march, calls SuperLU once, on R, and never
    # solves with trans set; every solve meets 1e-10 on the factored matrix
    factored, solves, splu = [], [], spla.splu

    def recorded(A, **kw):
        factored.append(A.shape)
        return _RecordedLU(splu(A, **kw), A, solves)

    monkeypatch.setattr(spla, "splu", recorded)
    mesh, cfg = build_uniform_triangulation(4), SpaceConfig(1, 0, 1, 0, 0)
    if kind == "steady":
        solve_steady(mesh, cfg, manufactured_problem("steady_oseen_ex1"))
    else:
        grid = TimeGrid.from_tau(1.0, 1.0 / 16)
        solve_evolutionary(mesh, cfg, manufactured_problem("evolutionary_oseen_ex2"), grid)
    n_R = 2 * (mesh.n_edges - mesh.boundary_edges.size) - (mesh.n_elements - 1)
    assert factored == [(n_R, n_R)]
    assert len(solves) == (1 if kind == "steady" else 16)
    assert all(args == () and kwargs == {} and res < 1e-10 for args, kwargs, res in solves)


def test_null_space_pressures_match_a_refined_threshold_solve():
    # N^T S_tt t and N^T b_t cancel node by node before EA sums the nodes at
    # the ends of each subtree run: at steady P1 n=64 the kept pressures are
    # within 5.1e-11 of the threshold solve of S refined three times on K,
    # where summing the runs before the cancellation gave 1.2e-10
    system, (load, traces) = _system("steady", build_uniform_triangulation(64),
                                     SpaceConfig(1, 0, 1, 0, 0))
    factor = solver._factorize(system)
    assert isinstance(factor.schur, solver._NullSpaceLU)
    x = solver.linear_solve(system, load, traces, factor)
    rhs, K = system.operator(load, traces), system.matrix()
    threshold = replace(factor, schur=solver._threshold_pivot_lu(system.reduced_blocks()[-1]))
    ref = threshold.solve(rhs)
    for _ in range(3):
        ref += threshold.solve(rhs - K @ ref)
    kept = slice(rhs.size - (system.kernels.mesh.n_elements - 1), None)
    assert np.linalg.norm(x[kept] - ref[kept]) <= 8e-11 * np.linalg.norm(ref[kept])
