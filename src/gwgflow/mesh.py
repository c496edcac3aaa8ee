"""Uniform triangulations of the unit square with full element/edge topology.

The mesh is the fixed diagonal-split pattern: the unit square is divided
into ``n x n`` axis-aligned cells and every cell is cut along the diagonal
from its lower-left to its upper-right corner.  All elements are stored
counterclockwise; every edge carries one fixed unit normal that points out
of its owner element (the incident element with the smaller index).

Edges are numbered by first appearance: walking the elements in order and,
within each element, the local edges ``(v0, v1), (v1, v2), (v2, v0)``, each
edge gets the next free number the first time it is met.  The trace DOF
order, and through it the assembled system and the study CSVs, depend on
this rule.
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
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


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

    # cell c = j*n + i has lower-left vertex j*(n+1) + i = c + j and holds
    # elements 2c (lower-right triangle) and 2c+1 (upper-left triangle)
    c = np.arange(n * n, dtype=np.int64)
    v00 = c + c // n
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    elements = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)

    return _build_topology(vertices, elements)


def _build_topology(vertices: np.ndarray, elements: np.ndarray) -> Mesh:
    nt = elements.shape[0]

    tri = vertices[elements]
    d1 = tri[:, 1] - tri[:, 0]
    d2 = tri[:, 2] - tri[:, 0]
    signed_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if np.any(signed_area <= 0):
        raise ValueError("all elements must be counterclockwise")

    # directed local edges, slot 3*t + le
    directed = elements[:, _LOCAL_EDGE_VERTS].reshape(-1, 2)
    lo, hi = directed.min(axis=1), directed.max(axis=1)
    _, first, inverse, counts = np.unique(
        lo * vertices.shape[0] + hi,
        return_index=True, return_inverse=True, return_counts=True,
    )
    if np.any(counts > 2):
        s = first[np.argmax(counts)]
        raise ValueError(f"edge ({lo[s]}, {hi[s]}) shared by more than two elements")

    # number edges by first appearance; the first slot is the owner's
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    slot_edge = rank[inverse]
    owner_slot = first[order]
    ne = owner_slot.size

    is_owner = np.zeros(3 * nt, dtype=bool)
    is_owner[owner_slot] = True
    nbr_slot = np.flatnonzero(~is_owner)
    nbr_edge = slot_edge[nbr_slot]

    edges = np.column_stack([lo[owner_slot], hi[owner_slot]])
    edge_elements = np.full((ne, 2), BOUNDARY, dtype=np.int64)
    edge_local_index = np.full((ne, 2), -1, dtype=np.int64)
    edge_elements[:, 0], edge_local_index[:, 0] = np.divmod(owner_slot, 3)
    edge_elements[nbr_edge, 1], edge_local_index[nbr_edge, 1] = np.divmod(nbr_slot, 3)
    element_edges = slot_edge.reshape(nt, 3)
    element_edge_sign = np.where(is_owner, 1, -1).reshape(nt, 3)

    # outward normal of the owner: rotate the directed edge by -90deg
    d = vertices[directed[owner_slot, 1]] - vertices[directed[owner_slot, 0]]
    edge_normals = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(*d.T)[:, None]

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
