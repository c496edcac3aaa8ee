"""The null-space factor of the P1 Schur complement: its basis, its tree and its gate."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gwgflow import solver
from gwgflow.config import SpaceConfig
from gwgflow.mesh import build_uniform_triangulation
from gwgflow.problems import manufactured_problem
from gwgflow.solver import TimeGrid, _null_space_lu, solve_evolutionary, solve_steady
from test_solver import _system

SIZES = [2, 4, 8, 16]


def _factor(kind, n, config=SpaceConfig(1, 0, 1, 0, 0)):
    system, step = _system(kind, build_uniform_triangulation(n), config)
    S = system.reduced_blocks()[-1]
    return system, S, _null_space_lu(system, S)


def _blocks(factor, S):
    # B, Z and N of the factor, in S's numbering: nk free traces, then the
    # kept pressures
    nk, nz = factor.S_t.shape[1], factor.R.c.size
    return S[nk:, :nk], factor.ZC[:nk], factor.ZN_T[nz:].T


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_stream_function_basis_spans_the_null_space_of_B(kind, n):
    # a tangential column per free edge and a stream-function column per
    # interior vertex: B Z is exactly zero, and Z has the dimension of ker B
    # (B has full row rank nT - 1) and full column rank
    system, S, factor = _factor(kind, n)
    B, Z, _ = _blocks(factor, S)
    assert (B @ Z).nnz == 0
    mesh = system.kernels.mesh
    n_free = mesh.n_edges - mesh.boundary_edges.size
    assert Z.shape == (2 * n_free, 2 * n_free - (mesh.n_elements - 1))
    if n <= 4:
        assert np.linalg.matrix_rank(Z.toarray()) == Z.shape[1]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_element_tree_reaches_every_element(kind, n):
    # every element but the pinned root is a node; in the preorder each node
    # heads the run of its subtree, and the root's subtrees tile the order
    system, S, factor = _factor(kind, n)
    tree, m = factor.tree, system.kernels.mesh.n_elements - 1
    assert np.array_equal(np.sort(tree.pre), np.arange(m))
    assert np.array_equal(tree.lo[tree.pre], np.arange(m))
    assert np.all(tree.hi > tree.lo) and tree.hi.max() == m
    # N has one column per node, on its tree edge, and no edge serves two nodes
    _, _, N = _blocks(factor, S)
    assert np.unique(factor.n_rows[:, 0]).size == m and N.shape[1] == m


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_tree_sweeps_equal_dense_solves(kind, n):
    # the cumulative-sum sweeps solve with B_tree = B N and its transpose
    _, S, factor = _factor(kind, n)
    B, _, N = _blocks(factor, S)
    B_tree = (B @ N).toarray()
    g = np.random.default_rng(n).standard_normal(B_tree.shape[0])
    for sweep, dense in ((factor.tree.solve, B_tree), (factor.tree.solve_transposed, B_tree.T)):
        ref = np.linalg.solve(dense, g)
        assert np.linalg.norm(sweep(g) - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_null_space_solve_equals_threshold_solve(kind, n):
    _, S, factor = _factor(kind, n)
    b = np.random.default_rng(n).standard_normal(S.shape[0])
    ref = solver._threshold_pivot_lu(S).solve(b)
    assert np.linalg.norm(factor.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "element, sigma",
    [((1, 0, 1, 0, 0), 1), ((2, 1, 1, 1, 1), 0), ((2, 1, 1, 1, 1), 1), ((1, 1, 1, 1, 0), 0)],
    ids=["P1-sigma1", "P2-sigma0", "P2-sigma1", "11110-sigma0"],
)
@pytest.mark.parametrize("kind", ["steady", "backward_euler"])
def test_gate_refuses_other_schur_complements(kind, element, sigma):
    # sigma = 1 fills the pressure block; the other tuples have P1 traces,
    # and their kept pressures a nonzero diagonal
    assert _factor(kind, 4, SpaceConfig(*element, sigma=sigma))[2] is None


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
