"""P1 finite elements with vertex quadrature on 2D triangular meshes.

Stiffness entries come from the cotangent formula: for an interior edge ij
with opposite angles theta1, theta2,

    S_ij = -(cot theta1 + cot theta2) / 2,

diagonals fixed so full row sums vanish.  Mass is lumped: a third of the
incident triangle area per vertex.  The discrete maximum principle holds
exactly when every edge satisfies cot theta1 + cot theta2 >= 0 (Delaunay).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import checked_vector


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class TriMesh2D:
    vertices: np.ndarray       # (V, 2)
    triangles: np.ndarray      # (T, 3) vertex indices
    boundary_mask: np.ndarray  # (V,) bool, True on the boundary

    def __post_init__(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be a (V, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be a (T, 3) array")
        if self.boundary_mask.shape != (len(self.vertices),):
            raise MeshError("boundary_mask length must match vertex count")

    @property
    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask)


def _triangle_geometry(mesh: TriMesh2D):
    """Areas (T,) and per-corner cotangents (T, 3) of every triangle."""
    p = mesh.vertices[mesh.triangles]  # (T, 3, 2): corners i, j, k
    e_jk = p[:, 2] - p[:, 1]
    e_ki = p[:, 0] - p[:, 2]
    e_ij = p[:, 1] - p[:, 0]
    area2 = e_ij[:, 0] * (-e_ki[:, 1]) - e_ij[:, 1] * (-e_ki[:, 0])  # 2 * signed area
    bad = np.flatnonzero(area2 <= 0)
    if len(bad):
        raise MeshError(f"triangle {bad[0]} has non-positive area {area2[bad[0]] / 2.0}")
    # cot at corner i = (opposite edge dot products) / (2 area)
    cots = np.stack([
        -(e_ij * e_ki).sum(axis=1),
        -(e_jk * e_ij).sum(axis=1),
        -(e_ki * e_jk).sum(axis=1),
    ], axis=1) / area2[:, None]
    return area2 / 2.0, cots


def _opposite_edges(mesh: TriMesh2D):
    """Endpoints (a, b), each (T, 3), of the edge opposite each corner."""
    return mesh.triangles[:, [1, 2, 0]], mesh.triangles[:, [2, 0, 1]]


def edge_cotangent_sums(mesh: TriMesh2D):
    """Edges (E, 2) as i < j in sorted order, the sum of their opposite
    cotangents (E,) and their incident triangle counts (E,)."""
    _, cots = _triangle_geometry(mesh)
    a, b = (e.ravel().astype(np.int64) for e in _opposite_edges(mesh))
    nv = len(mesh.vertices)
    # one integer key per edge sorts as the (i, j) pairs do
    keys, which, counts = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                    return_inverse=True, return_counts=True)
    sums = np.bincount(which, weights=cots.ravel(), minlength=len(keys))
    return np.stack(np.divmod(keys, nv), axis=1), sums, counts


@dataclass
class AssembledOperator:
    """P1 stiffness and lumped mass over the interior vertices of a mesh."""

    stiffness: object  # a scipy.sparse CSR matrix
    weights: np.ndarray
    nodes: np.ndarray
    ndof: int
    monotone: bool  # -Delta_h an M-matrix: the mesh passes `mesh_monotonicity_check`

    def node_coordinates(self) -> np.ndarray:
        return self.nodes

    def apply_neg_laplacian(self, u: np.ndarray) -> np.ndarray:
        return (self.stiffness @ checked_vector(u, self.ndof)) / self.weights


def p1_assemble(mesh: TriMesh2D) -> AssembledOperator:
    """Cotangent stiffness and one-third-area lumped mass on interior vertices."""
    import scipy.sparse as sp  # on first use: tensor-grid runs never load scipy.sparse
    interior = mesh.interior_indices
    if len(interior) == 0:
        raise MeshError("mesh has no interior vertex")
    nv = len(mesh.vertices)
    area, cots = _triangle_geometry(mesh)
    a, b = _opposite_edges(mesh)
    half = cots / 2.0
    # each corner adds half its cotangent to S_aa and S_bb and takes it from S_ab, S_ba
    full = sp.coo_matrix((np.concatenate([-half, -half, half, half], axis=None),
                          (np.concatenate([a, b, a, b], axis=None),
                           np.concatenate([b, a, a, b], axis=None))), shape=(nv, nv))
    lumped = np.bincount(mesh.triangles.ravel(), weights=np.repeat(area / 3.0, 3),
                         minlength=nv)
    return AssembledOperator(
        stiffness=full.tocsr()[interior][:, interior].tocsr(),
        weights=lumped[interior],
        nodes=mesh.vertices[interior],
        ndof=len(interior),
        monotone=mesh_monotonicity_check(mesh).ok,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    worst_edge: tuple[int, int]
    worst_value: float


def mesh_monotonicity_check(mesh: TriMesh2D) -> MonotonicityReport:
    """Check cot theta1 + cot theta2 >= -1e-12 on every interior edge.

    Equivalent to the Delaunay lens condition theta1 + theta2 <= pi.  Edges
    with a single incident triangle only touch eliminated boundary rows, so
    they are excluded.
    """
    edges, sums, counts = edge_cotangent_sums(mesh)
    edges, sums = edges[counts == 2], sums[counts == 2]
    if not len(sums):
        return MonotonicityReport(ok=True, worst_edge=(-1, -1), worst_value=np.inf)
    k = np.argmin(sums)  # the first of equal minima, in sorted edge order
    worst = float(sums[k])
    return MonotonicityReport(ok=worst >= -1e-12, worst_edge=tuple(map(int, edges[k])),
                              worst_value=worst)


def structured_right_triangle_mesh(cells: int) -> TriMesh2D:
    """Uniform grid of squares on [0, 1]^2, each split along one diagonal."""
    n = cells + 1
    xs = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)
    vid = np.arange(n * n).reshape(n, n)
    tris = []
    for i in range(cells):
        for j in range(cells):
            a, b, c, d = vid[i, j], vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1]
            tris.append((a, b, c))
            tris.append((a, c, d))
    boundary = np.zeros(n * n, dtype=bool)
    boundary[vid[0, :]] = boundary[vid[-1, :]] = True
    boundary[vid[:, 0]] = boundary[vid[:, -1]] = True
    return TriMesh2D(verts, np.array(tris), boundary)
