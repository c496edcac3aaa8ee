import numpy as np
import pytest

from gwgflow.mesh import BOUNDARY, _build_topology, build_uniform_triangulation


def test_single_cell_counts():
    m = build_uniform_triangulation(1)
    assert m.vertices.shape[0] == 4
    assert m.n_elements == 2
    assert m.n_edges == 5


def test_counts_n8_and_euler():
    m = build_uniform_triangulation(8)
    assert m.vertices.shape[0] == 81
    assert m.n_elements == 128
    assert m.n_edges == 208
    assert m.vertices.shape[0] - m.n_edges + m.n_elements == 1


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_euler_and_edge_counts(n):
    m = build_uniform_triangulation(n)
    assert m.vertices.shape[0] - m.n_edges + m.n_elements == 1
    assert len(m.boundary_edges) == 4 * n
    interior = m.n_edges - len(m.boundary_edges)
    # every interior edge has two incident elements, boundary edges one
    assert np.all(m.edge_elements[m.boundary_edges, 1] == BOUNDARY)
    mask = np.ones(m.n_edges, dtype=bool)
    mask[m.boundary_edges] = False
    assert np.all(m.edge_elements[mask, 1] >= 0)
    assert interior + len(m.boundary_edges) == m.n_edges


def test_rejects_zero_cells():
    with pytest.raises(ValueError):
        build_uniform_triangulation(0)


def test_counterclockwise_and_total_area():
    m = build_uniform_triangulation(7)
    assert np.all(m.areas > 0)
    assert abs(m.areas.sum() - 1.0) < 1e-12


def test_metrics_uniform():
    m = build_uniform_triangulation(8)
    assert m.h_elem.max() == pytest.approx(np.sqrt(2) / 8, abs=1e-15)
    assert np.allclose(m.h_elem, np.sqrt(2) / 8)
    # axis-parallel edges have length 1/8, diagonals sqrt(2)/8
    lengths = np.unique(np.round(m.h_edge, 14))
    assert np.allclose(lengths, [1 / 8, np.sqrt(2) / 8])

    m1 = build_uniform_triangulation(1)
    assert m1.h_elem.max() == pytest.approx(np.sqrt(2), abs=1e-15)


def test_normals_unit_and_divergence_theorem():
    m = build_uniform_triangulation(3)
    assert np.allclose(np.linalg.norm(m.edge_normals, axis=1), 1.0, atol=1e-14)
    for t in range(m.n_elements):
        n = m.edge_normals[m.element_edges[t]] * m.element_edge_sign[t][:, None]
        le = m.h_edge[m.element_edges[t]]
        assert np.abs((n * le[:, None]).sum(axis=0)).max() < 1e-12


def test_edge_orientation_convention():
    m = build_uniform_triangulation(4)
    # boundary edge on y = 0 has outward normal (0, -1)
    for e in m.boundary_edges:
        va, vb = m.vertices[m.edges[e]]
        if va[1] == 0.0 and vb[1] == 0.0:
            assert m.edge_elements[e, 1] == BOUNDARY
            assert np.allclose(m.edge_normals[e], [0.0, -1.0], atol=1e-15)
    # interior edges: owner has the smaller element index
    for e in range(m.n_edges):
        owner, nbr = m.edge_elements[e]
        if nbr != BOUNDARY:
            assert owner < nbr
        assert abs(np.linalg.norm(m.edge_normals[e]) - 1.0) < 1e-14


def test_corner_boundary_edges_follow_diagonal():
    # the lower-left-to-upper-right diagonal dictates how the two boundary
    # edges at each corner distribute over the corner triangles
    m = build_uniform_triangulation(2)
    corners = {(0.0, 0.0): 2, (1.0, 0.0): 1, (0.0, 1.0): 1, (1.0, 1.0): 2}
    for corner, expected_tris in corners.items():
        vid = int(
            np.flatnonzero(
                (m.vertices[:, 0] == corner[0]) & (m.vertices[:, 1] == corner[1])
            )[0]
        )
        tris = [t for t in range(m.n_elements) if vid in m.elements[t]]
        assert len(tris) == expected_tris
        boundary_at_corner = [
            e for e in m.boundary_edges if vid in m.edges[e]
        ]
        assert len(boundary_at_corner) == 2
        owners = {int(m.edge_elements[e, 0]) for e in boundary_at_corner}
        assert owners <= set(tris)


def test_single_cell_diagonal_is_the_shared_edge():
    m = build_uniform_triangulation(1)
    # diagonal edge 0-3 is interior: owner 0, neighbor 1
    (e,) = np.flatnonzero((m.edges[:, 0] == 0) & (m.edges[:, 1] == 3))
    assert m.edge_elements[e].tolist() == [0, 1]
    assert len(m.boundary_edges) == 4


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_topology_numbering(n):
    # the trace DOF order, and so the study CSVs, rest on this numbering
    m = build_uniform_triangulation(n)
    first_slot = np.full(m.n_edges, -1)
    for t in range(m.n_elements):
        for le in range(3):
            e = m.element_edges[t, le]
            va, vb = m.elements[t, le], m.elements[t, (le + 1) % 3]
            assert m.edges[e].tolist() == sorted([va, vb])
            side = 0 if m.element_edge_sign[t, le] == 1 else 1
            assert (m.element_edge_sign[t, le] == 1) == (first_slot[e] < 0)
            assert m.edge_elements[e, side] == t
            assert m.edge_local_index[e, side] == le
            if first_slot[e] < 0:
                first_slot[e] = 3 * t + le
    # edges are numbered by first appearance
    assert np.all(np.diff(first_slot) > 0)
    assert np.all(m.edge_local_index[m.boundary_edges, 1] == -1)


def test_topology_rejects_clockwise_element():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="counterclockwise"):
        _build_topology(vertices, np.array([[0, 2, 1]]))


def test_topology_rejects_edge_shared_by_three_elements():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [1.0, 1.0]])
    # edge (0, 2) is a side of all three triangles
    elements = np.array([[0, 1, 2], [0, 2, 3], [0, 4, 2]])
    with pytest.raises(ValueError, match=r"edge \(0, 2\) shared by more than two"):
        _build_topology(vertices, elements)


def test_mesh_immutable():
    m = build_uniform_triangulation(2)
    with pytest.raises(AttributeError):
        m.vertices = None
