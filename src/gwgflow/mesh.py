"""Uniform triangulations of the unit square with full element/edge topology.

The mesh is the fixed diagonal-split pattern: the unit square is divided
into ``n x n`` axis-aligned cells and every cell is cut along the diagonal
from its lower-left to its upper-right corner.  All elements are stored
counterclockwise; every edge carries one fixed unit normal that points out
of its owner element (the incident element with the smaller index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Marker used in ``edge_elements`` for the missing neighbor of a boundary edge.
BOUNDARY = -1

_LOCAL_EDGE_VERTS = np.array([[0, 1], [1, 2], [2, 0]])


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with precomputed topology and metric data.

    Attributes
    ----------
    vertices : (nv, 2) float array of vertex coordinates.
    elements : (nt, 3) int array, counterclockwise vertex triples.
    edges : (ne, 2) int array, vertex pairs stored as (min, max).
    edge_elements : (ne, 2) int array, (owner, neighbor); neighbor is
        ``BOUNDARY`` for boundary edges.  The owner is the incident element
        with the smaller index.
    element_edges : (nt, 3) int array, global edge index of local edge
        ``(v_i, v_{i+1})``.
    element_edge_sign : (nt, 3) int array, +1 where the stored edge normal
        is outward for this element, -1 where it is inward.
    edge_normals : (ne, 2) float array, unit normal pointing from the owner
        into the neighbor (outward on the boundary).
    edge_local_index : (ne, 2) int array, local edge number of this edge
        within owner and neighbor (-1 when there is no neighbor).
    h_elem : (nt,) element diameters (longest edge).
    h_edge : (ne,) edge lengths.
    areas : (nt,) element areas.
    centroids : (nt, 2) element centroids.
    boundary_edges : sorted int array of boundary edge indices.
    """

    vertices: np.ndarray
    elements: np.ndarray
    edges: np.ndarray
    edge_elements: np.ndarray
    element_edges: np.ndarray
    element_edge_sign: np.ndarray
    edge_normals: np.ndarray
    edge_local_index: np.ndarray
    h_elem: np.ndarray
    h_edge: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray
    boundary_edges: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def h_max(self) -> float:
        return float(self.h_elem.max())

    def element_vertices(self, t: int) -> np.ndarray:
        """Coordinates of element ``t`` as a (3, 2) array."""
        return self.vertices[self.elements[t]]

    def outward_normals(self, t: int) -> np.ndarray:
        """Outward unit normals of element ``t``, one per local edge, (3, 2)."""
        signs = self.element_edge_sign[t]
        return self.edge_normals[self.element_edges[t]] * signs[:, None]


def build_uniform_triangulation(cells_per_side: int) -> Mesh:
    """Triangulate the unit square with the lower-left-to-upper-right split.

    ``cells_per_side`` square cells per direction, two triangles per cell;
    mesh size of the underlying grid is ``1 / cells_per_side``.
    """
    n = int(cells_per_side)
    if n < 1:
        raise ValueError(f"cells_per_side must be >= 1, got {cells_per_side}")

    coords_1d = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords_1d, coords_1d, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    for j in range(n):
        for i in range(n):
            c = j * n + i
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            elements[2 * c] = (v00, v10, v11)      # lower-right triangle
            elements[2 * c + 1] = (v00, v11, v01)  # upper-left triangle

    return _build_topology(vertices, elements)


def _build_topology(vertices: np.ndarray, elements: np.ndarray) -> Mesh:
    nt = elements.shape[0]

    tri = vertices[elements]
    d1 = tri[:, 1] - tri[:, 0]
    d2 = tri[:, 2] - tri[:, 0]
    signed_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if np.any(signed_area <= 0):
        raise ValueError("all elements must be counterclockwise")

    edge_index: dict[tuple[int, int], int] = {}
    edges_list: list[tuple[int, int]] = []
    edge_elements_list: list[list[int]] = []
    edge_local_list: list[list[int]] = []
    element_edges = np.empty((nt, 3), dtype=np.int64)
    element_edge_sign = np.empty((nt, 3), dtype=np.int64)
    edge_normals_list: list[np.ndarray] = []

    for t in range(nt):
        for le, (a, b) in enumerate(_LOCAL_EDGE_VERTS):
            va, vb = int(elements[t, a]), int(elements[t, b])
            key = (va, vb) if va < vb else (vb, va)
            if key not in edge_index:
                e = len(edges_list)
                edge_index[key] = e
                edges_list.append(key)
                edge_elements_list.append([t, BOUNDARY])
                edge_local_list.append([le, -1])
                # outward normal of the owner: rotate the directed edge by -90deg
                d = vertices[vb] - vertices[va]
                nrm = np.array([d[1], -d[0]]) / np.hypot(d[0], d[1])
                edge_normals_list.append(nrm)
                element_edges[t, le] = e
                element_edge_sign[t, le] = 1
            else:
                e = edge_index[key]
                if edge_elements_list[e][1] != BOUNDARY:
                    raise ValueError(f"edge {key} shared by more than two elements")
                edge_elements_list[e][1] = t
                edge_local_list[e][1] = le
                element_edges[t, le] = e
                element_edge_sign[t, le] = -1

    edges = np.array(edges_list, dtype=np.int64)
    edge_elements = np.array(edge_elements_list, dtype=np.int64)
    edge_local_index = np.array(edge_local_list, dtype=np.int64)
    edge_normals = np.array(edge_normals_list)

    h_edge = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    h_elem = h_edge[element_edges].max(axis=1)
    boundary_edges = np.flatnonzero(edge_elements[:, 1] == BOUNDARY)

    return Mesh(
        vertices=vertices,
        elements=elements,
        edges=edges,
        edge_elements=edge_elements,
        element_edges=element_edges,
        element_edge_sign=element_edge_sign,
        edge_normals=edge_normals,
        edge_local_index=edge_local_index,
        h_elem=h_elem,
        h_edge=h_edge,
        areas=signed_area,
        centroids=tri.mean(axis=1),
        boundary_edges=boundary_edges,
    )


def mesh_metrics(mesh: Mesh) -> tuple[float, np.ndarray, np.ndarray]:
    """Return (h_max, per-element diameters, per-edge lengths)."""
    return mesh.h_max, mesh.h_elem, mesh.h_edge


def edge_orientation(mesh: Mesh, edge_id: int) -> tuple[int, int, np.ndarray]:
    """Owner element, neighbor (or ``BOUNDARY``) and the fixed unit normal.

    The normal points from the owner into the neighbor.  Jumps across an
    interior edge are defined as (owner value) - (neighbor value) with this
    orientation.
    """
    if not 0 <= edge_id < mesh.n_edges:
        raise IndexError(f"edge id {edge_id} out of range [0, {mesh.n_edges})")
    owner, neighbor = mesh.edge_elements[edge_id]
    return int(owner), int(neighbor), mesh.edge_normals[edge_id].copy()


def dump_mesh(mesh: Mesh, stream) -> None:
    """Write the plain-text mesh dump (one record per line).

    Records: ``vertex x y``, ``tri i j k``, ``edge i j owner nbr`` where
    ``nbr`` is -1 on the boundary.
    """
    for x, y in mesh.vertices:
        stream.write(f"vertex {x:.17g} {y:.17g}\n")
    for i, j, k in mesh.elements:
        stream.write(f"tri {i} {j} {k}\n")
    for e in range(mesh.n_edges):
        i, j = mesh.edges[e]
        owner, nbr = mesh.edge_elements[e]
        stream.write(f"edge {i} {j} {owner} {nbr}\n")
