"""Isosurface meshing and surface-comparison metrics.

extract_isosurface runs classic 256-case marching cubes over a uniform grid
as array passes: cube corners are numbered 0-3 around the bottom face
(z = z_k) starting at the cell's min corner and going +x, +x+y, +y, with 4-7
the matching top face, and edges 0-11 in the usual order (bottom ring, top
ring, then the four verticals 0-4, 1-5, 2-6, 3-7).  A corner contributes its
bit when the field value there is strictly below the isovalue.  Every grid
edge whose two ends lie on opposite sides carries exactly one vertex, so the
interpolation denominator is never zero and neighbouring cells share their
vertices; vertices are numbered x-edges, then y-edges, then z-edges, each in
C order, and triangles follow the cells in C order.  A surface that reaches
the box boundary is refused, because its mesh would be open and its volume
meaningless.

Metrics follow the mesh itself: area as the summed triangle areas, enclosed
volume as |sum of signed tetrahedron volumes| against the origin, and a
Metro-style symmetric Hausdorff estimate (Cignoni, Rocchini & Scopigno, CGF
1998): sampled points on one mesh (its vertices and a barycentric lattice on
each triangle, each distinct point once) against exact point-to-triangle
distances on the other.  Since the estimate is a maximum over points, a point
is measured exactly only while an upper bound on its distance (its nearest
target vertex, then the triangles around that vertex) exceeds the running
maximum, the early break of Taha & Hanbury (TPAMI 2015); the bounds are >= the
exact value to the bit, so H is unchanged.  The break extends to whole
triangles: each direction measures the source mesh's vertices first, and a
triangle gets its lattice points only if min over its corners c of (c's bound
+ the longer edge at c), plus a margin for rounding at the meshes' coordinate
scale, still exceeds the maximum.  The distances, the bounds and the cell
list of each target mesh that finds nearest vertices and candidate triangles
are in erbfit.distance; the cell side is the longest edge of either mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._mc_tables import TRI_TABLE
from .distance import _bounded_max, _CellList, _edge_lengths, _rounding_margin
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
# cube edge e is the grid edge along axis _CUBE_EDGES[e][0] that starts at the
# cell corner offset _CUBE_EDGES[e][1]
_CUBE_EDGES = (
    (0, (0, 0, 0)), (1, (1, 0, 0)), (0, (0, 1, 0)), (1, (0, 0, 0)),
    (0, (0, 0, 1)), (1, (1, 0, 1)), (0, (0, 1, 1)), (1, (0, 0, 1)),
    (2, (0, 0, 0)), (2, (1, 0, 0)), (2, (1, 1, 0)), (2, (0, 1, 0)),
)
_TRIANGLES = np.array(TRI_TABLE, dtype=np.int64)


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

    `evaluator` maps the GridSpec of the mesh to its len(grid) node values
    in C order, as GaussianField.values and RbfModel.values do.  Triangles
    come out oriented with normals pointing toward decreasing field values,
    which is outward for a molecular density.  Raises EmptyMeshError when no
    grid cell crosses the isovalue, MeshError when a grid node on the box
    boundary is not below the isovalue, and ValueError for a non-finite
    isovalue.
    """
    if not np.isfinite(isovalue):
        raise ValueError(f"isovalue must be finite, got {isovalue}")
    grid = make_grid(box, spacing)
    nx, ny, nz = grid.counts
    vals = np.asarray(evaluator(grid), dtype=np.float64).reshape(grid.shape)
    if not np.isfinite(vals).all():
        raise MeshError("field evaluator produced non-finite values")

    below = vals < isovalue
    case = np.zeros((nx, ny, nz), dtype=np.uint8)
    for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
        case |= below[dx:nx + dx, dy:ny + dy, dz:nz + dz].astype(np.uint8) << bit
    cells = np.flatnonzero((case != 0) & (case != 255))
    if cells.size == 0:
        raise EmptyMeshError(
            f"isovalue {isovalue} is not crossed anywhere inside the box")
    if not all(np.take(below, [0, -1], axis=a).all() for a in range(3)):
        raise MeshError("the surface reaches the box boundary; the mesh would be open")

    # one vertex per cut grid edge (np.diff of a bool array is "not equal"),
    # numbered x-edges, then y-edges, then z-edges, each in C order
    xs = [grid.axis_coords(p) for p in range(3)]
    vertex_id, vertices, n = [], [], 0
    for axis in range(3):
        cut = np.diff(below, axis=axis)
        lo = np.nonzero(cut)
        hi = lo[:axis] + (lo[axis] + 1,) + lo[axis + 1:]
        va = vals[lo]
        t = (isovalue - va) / (vals[hi] - va)
        coords = [xs[p][lo[p]] for p in range(3)]
        coords[axis] = coords[axis] + t * (xs[axis][hi[axis]] - coords[axis])
        vertices.append(np.stack(coords, axis=1))
        vertex_id.append(np.full(cut.shape, -1, dtype=np.int64))
        vertex_id[axis][lo] = np.arange(n, n + t.size)
        n += t.size

    ci, cj, ck = np.unravel_index(cells, (nx, ny, nz))
    edge_vertex = np.stack([vertex_id[axis][ci + dx, cj + dy, ck + dz]
                            for axis, (dx, dy, dz) in _CUBE_EDGES], axis=1)
    rows = _TRIANGLES[case.ravel()[cells]]
    # -1 pads each row; take_along_axis reads it as the last column, which
    # the mask then drops
    triangles = np.take_along_axis(edge_vertex, rows, axis=1)[rows >= 0]
    return TriMesh(vertices=np.concatenate(vertices),
                   triangles=triangles.reshape(-1, 3))


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


def _triangle_samples(mesh: TriMesh, per_triangle: int, triangles=None) -> np.ndarray:
    """The nodes of a deterministic barycentric lattice on the given triangles
    (all by default) that are not triangle corners, each point once.

    per_triangle = 10 uses the degree-3 lattice (i+j+k = 3), which has exactly
    10 nodes; other counts take the first nodes of the next large-enough
    lattice.  A lattice corner is a copy of a mesh vertex and is left out: the
    vertices are measured on their own.  A node on an edge is the same point,
    to the bit, in every triangle that holds the edge (its two weights are the
    same numbers and the third adds 0 * x), so it is taken once, from the
    first of the given triangles that holds it; this also holds on open and
    non-manifold meshes.  Every interior node is taken.  The directed
    Hausdorff distance is a max over points, so it is the same over these
    points and the vertices as over the full lattice on every triangle.
    """
    degree = 1
    while (degree + 1) * (degree + 2) // 2 < per_triangle:
        degree += 1
    i, j = np.indices((degree + 1, degree + 1)).reshape(2, -1)
    keep = i + j <= degree
    i, j = i[keep], j[keep]
    lattice = np.stack([i, j, degree - i - j], axis=1)[:per_triangle]
    t = mesh.triangles if triangles is None else mesh.triangles[triangles]
    zeros = (lattice == 0).sum(axis=1)
    take = np.zeros((t.shape[0], lattice.shape[0]), dtype=bool)
    take[:, zeros == 0] = True
    # an edge node is named by its edge (the sorted vertex pair) and its
    # weight on the edge's lower vertex
    edge_nodes = np.flatnonzero(zeros == 1)
    nodes = lattice[edge_nodes]
    a = (np.argmin(nodes, axis=1) + 1) % 3
    b = (a + 1) % 3
    ta, tb = t[:, a], t[:, b]
    lo, hi = np.minimum(ta, tb), np.maximum(ta, tb)
    _, edge = np.unique(lo * mesh.vertices.shape[0] + hi, return_inverse=True)
    rows = np.arange(len(nodes))
    weight_lo = np.where(ta < tb, nodes[rows, a], nodes[rows, b])
    _, first = np.unique(edge.reshape(lo.shape) * (degree + 1) + weight_lo,
                         return_index=True)
    on_edge = np.zeros(lo.size, dtype=bool)
    on_edge[first] = True
    take[:, edge_nodes] = on_edge.reshape(lo.shape)
    tri, node = np.nonzero(take)
    bary = lattice[node] / degree
    v = mesh.vertices
    return (bary[:, 0, None] * v[t[tri, 0]]
            + bary[:, 1, None] * v[t[tri, 1]]
            + bary[:, 2, None] * v[t[tri, 2]])


def hausdorff(mesh_a: TriMesh, mesh_b: TriMesh, samples_per_triangle: int = 10) -> float:
    """Symmetric Hausdorff estimate between two mesh surfaces.

    Samples each mesh (vertices plus a fixed barycentric lattice per triangle,
    each distinct point once) and takes the max of the two directed
    sample-to-surface maxima, each as in _bounded_max.  A direction measures
    the source mesh's vertices first.  A lattice point of a triangle lies
    within the longer of the two edges at a corner c of that corner, and the
    distance to a surface grows no faster than the point moves, so the
    triangle's points cannot exceed min over corners of (c's bound + longer
    edge at c); only the triangles whose bound, plus a rounding margin, exceeds
    the running maximum get lattice points.  The second direction starts from
    the first one's maximum.  Every point that can raise the maximum is
    measured as it would be alone, so the result is max(d_ab, d_ba) over every
    sample point, to the bit.
    """
    if mesh_a.n_f == 0 or mesh_b.n_f == 0:
        raise MeshError("hausdorff needs two non-empty meshes")
    edges = [_edge_lengths(m) for m in (mesh_a, mesh_b)]
    # one cell side for both cell lists: the longest edge of either mesh
    side = max(float(e.max()) for e in edges)
    margin = _rounding_margin(side, mesh_a.vertices, mesh_b.vertices)
    lo = 0.0
    for source, target, e in ((mesh_a, mesh_b, edges[0]), (mesh_b, mesh_a, edges[1])):
        cells = _CellList(target, side, margin)
        lo, bound = _bounded_max(source.vertices, cells, lo)
        # corner c of a triangle holds its edges c and c - 1 (mod 3)
        tri_bound = np.minimum.reduce([bound[source.triangles[:, c]] + np.maximum(e[c], e[c - 1])
                                       for c in range(3)]) + margin
        tris = np.flatnonzero(tri_bound > lo)
        if tris.size:
            lo = _bounded_max(_triangle_samples(source, samples_per_triangle, tris),
                              cells, lo)[0]
    return lo


def compare_surfaces(eval_a, eval_b, box: Box, spacing: float, isovalue: float) -> dict:
    """Mesh two fields on one grid and report areas, volumes, errors, Hausdorff.

    eval_a is the reference (original) field, eval_b the approximation; both
    map a GridSpec to its node values, as in extract_isosurface.  Relative
    errors are against the reference.
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
        "H": hausdorff(mesh_a, mesh_b),
    }


def write_obj(mesh: TriMesh, path, header_lines=()) -> None:
    """OBJ export: comment header, v records, 1-based f records."""
    lines = [f"# {h}" for h in header_lines]
    lines += [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {a} {b} {c}" for a, b, c in (mesh.triangles + 1).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")
