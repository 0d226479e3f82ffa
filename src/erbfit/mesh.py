"""Isosurface meshing and surface-comparison metrics.

extract_isosurface runs classic 256-case marching cubes over a uniform grid:
cube corners are numbered 0-3 around the bottom face (z = z_k) starting at the
cell's min corner and going +x, +x+y, +y, with 4-7 the matching top face, and
edges 0-11 in the usual order (bottom ring, top ring, then the four verticals
0-4, 1-5, 2-6, 3-7).  A corner contributes its bit when the field value there
is strictly below the isovalue, so a flagged edge always has endpoints on
opposite sides and the linear interpolation denominator is never zero.
Vertices are deduplicated on grid edges, which makes the mesh combinatorially
watertight across interior cell faces and makes vertex numbering a pure
function of the inputs.

Metrics follow the mesh itself: area as the summed triangle areas, enclosed
volume as |sum of signed tetrahedron volumes| against the origin, and a
Metro-style symmetric Hausdorff estimate (sampled points on one mesh against
exact point-to-triangle distances on the other).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from ._mc_tables import EDGE_TABLE, TRI_TABLE
from .field import Box
from .sampler import make_grid


class MeshError(RuntimeError):
    pass


class EmptyMeshError(MeshError):
    """The isovalue is not crossed anywhere inside the box."""


_CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
_EDGE_CORNERS = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
)


@dataclass(frozen=True)
class TriMesh:
    """Triangle mesh; indices are 0-based rows into vertices."""

    vertices: np.ndarray   # (V, 3) float

    triangles: np.ndarray  # (F, 3) int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if t.size and (t.min() < 0 or t.max() >= v.shape[0]):
            raise ValueError("triangle index out of range")
        if t.size and ((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])).any():
            raise ValueError("degenerate triangle (repeated vertex index)")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def n_f(self) -> int:
        return self.triangles.shape[0]

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V1, V2, V3) arrays of shape (F, 3)."""
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def translated(self, offset) -> "TriMesh":
        return TriMesh(self.vertices + np.asarray(offset, dtype=np.float64),
                       self.triangles.copy())


def extract_isosurface(evaluator, box: Box, spacing: float, isovalue: float) -> TriMesh:
    """Marching-cubes mesh of {evaluator = isovalue} inside `box`.

    `evaluator` maps an (M, 3) point array to (M,) field values.  Triangles
    come out oriented with normals pointing toward decreasing field values,
    which is outward for a molecular density.  Raises EmptyMeshError when no
    grid cell crosses the isovalue.
    """
    grid = make_grid(box, spacing)
    nx, ny, nz = grid.counts
    vals = np.asarray(evaluator(grid.points()), dtype=np.float64).reshape(
        nx + 1, ny + 1, nz + 1)
    if not np.isfinite(vals).all():
        raise MeshError("field evaluator produced non-finite values")

    # cells with at least one corner on each side of the isovalue
    below = vals < isovalue
    some_below = np.zeros((nx, ny, nz), dtype=bool)
    all_below = np.ones((nx, ny, nz), dtype=bool)
    for dx, dy, dz in _CORNER_OFFSETS:
        corner = below[dx:nx + dx, dy:ny + dy, dz:nz + dz]
        some_below |= corner
        all_below &= corner
    crossing = np.argwhere(some_below & ~all_below)
    if crossing.shape[0] == 0:
        raise EmptyMeshError(
            f"isovalue {isovalue} is not crossed anywhere inside the box")

    xs = [grid.axis_coords(p) for p in range(3)]
    s0, s1 = (ny + 1) * (nz + 1), nz + 1

    vertices: list[tuple[float, float, float]] = []
    vertex_on_edge: dict[tuple[int, int], int] = {}
    triangles: list[tuple[int, int, int]] = []

    for i, j, k in crossing:
        flat = []
        cvals = []
        case = 0
        for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
            f = (i + dx) * s0 + (j + dy) * s1 + (k + dz)
            flat.append(f)
            v = vals[i + dx, j + dy, k + dz]
            cvals.append(v)
            if v < isovalue:
                case |= 1 << bit
        edge_mask = EDGE_TABLE[case]
        edge_vertex = [-1] * 12
        for e in range(12):
            if not (edge_mask >> e) & 1:
                continue
            a, b = _EDGE_CORNERS[e]
            key = (flat[a], flat[b]) if flat[a] < flat[b] else (flat[b], flat[a])
            idx = vertex_on_edge.get(key)
            if idx is None:
                va, vb = cvals[a], cvals[b]
                t = (isovalue - va) / (vb - va)
                oa, ob = _CORNER_OFFSETS[a], _CORNER_OFFSETS[b]
                px = xs[0][i + oa[0]] + t * (xs[0][i + ob[0]] - xs[0][i + oa[0]])
                py = xs[1][j + oa[1]] + t * (xs[1][j + ob[1]] - xs[1][j + oa[1]])
                pz = xs[2][k + oa[2]] + t * (xs[2][k + ob[2]] - xs[2][k + oa[2]])
                idx = len(vertices)
                vertices.append((px, py, pz))
                vertex_on_edge[key] = idx
            edge_vertex[e] = idx
        row = TRI_TABLE[case]
        for t0 in range(0, 16, 3):
            if row[t0] < 0:
                break
            triangles.append((edge_vertex[row[t0]],
                              edge_vertex[row[t0 + 1]],
                              edge_vertex[row[t0 + 2]]))

    return TriMesh(vertices=np.array(vertices, dtype=np.float64),
                   triangles=np.array(triangles, dtype=np.int64))


def mesh_area(mesh: TriMesh) -> float:
    """Total surface area: half the summed cross-product magnitudes."""
    v1, v2, v3 = mesh.corners()
    cross = np.cross(v2 - v1, v3 - v1)
    return float(0.5 * np.linalg.norm(cross, axis=1).sum())


def mesh_volume(mesh: TriMesh) -> float:
    """Volume enclosed by a closed mesh.

    Sums the signed tetrahedron volumes spanned by each triangle and the
    origin (written via the centroid-to-origin vector) and takes the absolute
    value, so the result is orientation- and translation-invariant.
    """
    v1, v2, v3 = mesh.corners()
    cross = np.cross(v2 - v1, v3 - v1)
    to_origin = -(v1 + v2 + v3) / 3.0
    return float(abs((cross * to_origin).sum() / 6.0))


def _triangle_samples(mesh: TriMesh, per_triangle: int) -> np.ndarray:
    """Mesh vertices plus a deterministic barycentric lattice on each triangle.

    per_triangle = 10 uses the degree-3 lattice (i+j+k = 3), which has exactly
    10 nodes; other counts take the first nodes of the next large-enough
    lattice.
    """
    degree = 1
    while (degree + 1) * (degree + 2) // 2 < per_triangle:
        degree += 1
    bary = []
    for bi in range(degree + 1):
        for bj in range(degree + 1 - bi):
            bary.append((bi / degree, bj / degree, (degree - bi - bj) / degree))
    bary = np.array(bary[:per_triangle], dtype=np.float64)
    v1, v2, v3 = mesh.corners()
    samples = (bary[None, :, 0, None] * v1[:, None, :]
               + bary[None, :, 1, None] * v2[:, None, :]
               + bary[None, :, 2, None] * v3[:, None, :])
    return np.concatenate([mesh.vertices, samples.reshape(-1, 3)], axis=0)


def _segment_distance_sq(p, a, b):
    """Squared distance from points p to segments a-b (all (K, 3))."""
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    t = ((p - a) * ab).sum(axis=1)
    t = np.divide(t, denom, out=np.zeros_like(t), where=denom > 0)
    np.clip(t, 0.0, 1.0, out=t)
    closest = a + t[:, None] * ab
    d = p - closest
    return (d * d).sum(axis=1)


def _point_triangle_distance_sq(p, a, b, c):
    """Squared exact distance from points p to triangles (a, b, c), (K, 3) each."""
    v0 = b - a
    v1 = c - a
    v2 = p - a
    d00 = (v0 * v0).sum(axis=1)
    d01 = (v0 * v1).sum(axis=1)
    d11 = (v1 * v1).sum(axis=1)
    d20 = (v2 * v0).sum(axis=1)
    d21 = (v2 * v1).sum(axis=1)
    denom = d00 * d11 - d01 * d01
    pos = denom > 0
    v = np.divide(d11 * d20 - d01 * d21, denom, out=np.full_like(denom, -1.0), where=pos)
    w = np.divide(d00 * d21 - d01 * d20, denom, out=np.full_like(denom, -1.0), where=pos)
    interior = (v >= 0) & (w >= 0) & (v + w <= 1)
    # perpendicular distance where the projection lands inside the triangle
    n = np.cross(v0, v1)
    nn = (n * n).sum(axis=1)
    pn = (v2 * n).sum(axis=1)
    plane_sq = np.divide(pn * pn, nn, out=np.full_like(nn, np.inf), where=nn > 0)
    plane_sq = np.where(interior, plane_sq, np.inf)
    edge_sq = np.minimum(
        _segment_distance_sq(p, a, b),
        np.minimum(_segment_distance_sq(p, b, c), _segment_distance_sq(p, c, a)),
    )
    return np.minimum(plane_sq, edge_sq)


def _directed_hausdorff(points: np.ndarray, target: TriMesh) -> float:
    """max over points of the exact distance to the target mesh surface."""
    v1, v2, v3 = target.corners()
    centroids = (v1 + v2 + v3) / 3.0
    # circumscribing radius per triangle around its centroid
    reach = np.sqrt(np.maximum(
        ((v1 - centroids) ** 2).sum(axis=1),
        np.maximum(((v2 - centroids) ** 2).sum(axis=1),
                   ((v3 - centroids) ** 2).sum(axis=1)),
    ))
    max_reach = float(reach.max())
    # distance to the nearest target vertex bounds the surface distance above
    ub, _ = cKDTree(target.vertices).query(points, k=1)
    tree = cKDTree(centroids)
    candidates = tree.query_ball_point(points, ub + max_reach)

    best = np.full(points.shape[0], np.inf)
    pair_p: list[np.ndarray] = []
    pair_t: list[np.ndarray] = []
    for pi, tris in enumerate(candidates):
        if tris:
            pair_p.append(np.full(len(tris), pi, dtype=np.int64))
            pair_t.append(np.array(tris, dtype=np.int64))
    if pair_p:
        pair_p = np.concatenate(pair_p)
        pair_t = np.concatenate(pair_t)
        chunk = 500_000
        for s in range(0, pair_p.shape[0], chunk):
            pp = pair_p[s:s + chunk]
            tt = pair_t[s:s + chunk]
            d_sq = _point_triangle_distance_sq(points[pp], v1[tt], v2[tt], v3[tt])
            np.minimum.at(best, pp, d_sq)
    # every point got at least its nearest-vertex triangle fan as candidates,
    # but guard with the vertex bound in case of isolated vertices
    best = np.minimum(np.sqrt(best), ub)
    return float(best.max())


def hausdorff(mesh_a: TriMesh, mesh_b: TriMesh, samples_per_triangle: int = 10) -> float:
    """Symmetric Hausdorff estimate between two mesh surfaces.

    Samples each mesh (vertices plus a fixed barycentric lattice per triangle)
    and takes the max of the two directed sample-to-surface maxima.
    """
    if mesh_a.n_f == 0 or mesh_b.n_f == 0:
        raise MeshError("hausdorff needs two non-empty meshes")
    d_ab = _directed_hausdorff(_triangle_samples(mesh_a, samples_per_triangle), mesh_b)
    d_ba = _directed_hausdorff(_triangle_samples(mesh_b, samples_per_triangle), mesh_a)
    return max(d_ab, d_ba)


def compare_surfaces(eval_a, eval_b, box: Box, spacing: float, isovalue: float,
                     samples_per_triangle: int = 10) -> dict:
    """Mesh two fields on one grid and report areas, volumes, errors, Hausdorff.

    eval_a is the reference (original) field, eval_b the approximation; both
    map (M, 3) points to values.  Relative errors are against the reference.
    """
    mesh_a = extract_isosurface(eval_a, box, spacing, isovalue)
    mesh_b = extract_isosurface(eval_b, box, spacing, isovalue)
    area_a, area_b = mesh_area(mesh_a), mesh_area(mesh_b)
    vol_a, vol_b = mesh_volume(mesh_a), mesh_volume(mesh_b)
    return {
        "A_original": area_a,
        "A_our": area_b,
        "Error_A": abs(area_b - area_a) / area_a,
        "V_original": vol_a,
        "V_our": vol_b,
        "Error_V": abs(vol_b - vol_a) / vol_a,
        "H": hausdorff(mesh_a, mesh_b, samples_per_triangle),
    }


def write_obj(mesh: TriMesh, path, header_lines=()) -> None:
    """OBJ export: comment header, v records, 1-based f records."""
    lines = [f"# {h}" for h in header_lines]
    for v in mesh.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n")
