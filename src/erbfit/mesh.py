"""Isosurface meshing, and the area and volume of a mesh.

extract_isosurface runs classic 256-case marching cubes over a uniform grid
as array passes.  A corner contributes its bit when the field value there is
strictly below the isovalue.  Every grid edge whose two ends lie on opposite
sides carries exactly one vertex, so the interpolation denominator is never
zero and neighbouring cells share their vertices.  A surface that reaches
the box boundary is refused, because its mesh would be open and its volume
meaningless.

compare_surfaces reports the area and volume (_area_volume) and the
Hausdorff distance (erbfit.distance) of two meshes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc_tables import TRI_TABLE
from .distance import hausdorff
from .field import Box, coordinate_major, write_lines
from .sampler import _inside_grid, make_grid


class MeshError(RuntimeError):
    pass


class EmptyMeshError(MeshError):
    """The isovalue is not crossed anywhere inside the box."""


# cube corner i at its offset from the cell's min corner: 0-3 go round the
# bottom face (z = z_k) by +x, +x+y, +y, and 4-7 are the top face above them
_CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
# cube edge e is the grid edge along axis _CUBE_EDGES[e][0] that starts at the
# cell corner offset _CUBE_EDGES[e][1]: the bottom ring, the top ring, then
# the four verticals 0-4, 1-5, 2-6, 3-7
_CUBE_EDGES = (
    (0, (0, 0, 0)), (1, (1, 0, 0)), (0, (0, 1, 0)), (1, (0, 0, 0)),
    (0, (0, 0, 1)), (1, (1, 0, 1)), (0, (0, 1, 1)), (1, (0, 0, 1)),
    (2, (0, 0, 0)), (2, (1, 0, 0)), (2, (1, 1, 0)), (2, (0, 1, 0)),
)
# each cube edge's axis, and its start offsets as (dx, dy, dz) arrays
_EDGE_AXES = np.array([axis for axis, _ in _CUBE_EDGES], dtype=np.int8)
_EDGE_STARTS = tuple(np.array(d) for d in zip(*(start for _, start in _CUBE_EDGES)))
_TRIANGLES = np.array(TRI_TABLE, dtype=np.int8)


@dataclass(frozen=True)
class TriMesh:
    """Triangle mesh: (F, 3) integer rows, 0-based, into finite (V, 3) vertices.

    vertices is the transpose view of the gate's (3, V) array (field.coordinate_major).
    edge_keys, when given, is a (V,) integer array naming the grid edge that
    holds each vertex: extract_isosurface sets axis * grid nodes + the edge's
    C-order key, strictly increasing.  It is None for a mesh built by hand,
    and translated drops it.  hausdorff reads it only to choose which vertex
    of a mesh of the same grid bounds a distance (erbfit.distance).
    """

    vertices: np.ndarray   # (V, 3) float
    triangles: np.ndarray  # (F, 3) int
    edge_keys: np.ndarray | None = None  # (V,) int

    def __post_init__(self):
        v = coordinate_major(self.vertices).T
        t = np.asarray(self.triangles)
        if t.size == 0:
            t = np.empty((0, 3), dtype=np.int64)
        if t.ndim != 2 or t.shape[1] != 3 or not np.issubdtype(t.dtype, np.integer):
            raise ValueError(f"expected (F, 3) integer triangles, got {t.dtype} {t.shape}")
        t = t.astype(np.int64, copy=False)
        if t.size and (t.min() < 0 or t.max() >= v.shape[0]):
            raise ValueError("triangle index out of range")
        if t.size and ((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])).any():
            raise ValueError("degenerate triangle (repeated vertex index)")
        if self.edge_keys is not None:
            k = np.asarray(self.edge_keys)
            if k.shape != (v.shape[0],) or not np.issubdtype(k.dtype, np.integer):
                raise ValueError(f"expected ({v.shape[0]},) integer edge keys, got {k.dtype} {k.shape}")
            object.__setattr__(self, "edge_keys", k)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def n_f(self) -> int:
        return self.triangles.shape[0]

    def corners_t(self) -> list[np.ndarray]:
        """(V1, V2, V3) as (3, F) arrays taken from the (3, V) vertices."""
        v_t = self.vertices.T
        return [np.take(v_t, t, axis=1) for t in np.ascontiguousarray(self.triangles.T)]

    def corners(self) -> tuple[np.ndarray, ...]:
        """The (F, 3) views of corners_t()."""
        return tuple(c.T for c in self.corners_t())

    def translated(self, offset) -> "TriMesh":
        return TriMesh(self.vertices + offset, self.triangles.copy())


def extract_isosurface(evaluator, box: Box, spacing: float, isovalue: float) -> TriMesh:
    """Marching-cubes mesh of {evaluator = isovalue} inside `box`.

    `evaluator` maps the GridSpec of the mesh to its len(grid) node values
    in C order, as GaussianField.values and RbfModel.values do.  Triangles
    follow the cells in C order, with normals pointing toward decreasing
    field values, outward for a molecular density.  The working memory is
    the value grid, a few bytes a node and O(triangles): the values are
    released once the vertices are interpolated.  Raises EmptyMeshError
    when no grid cell crosses the isovalue, MeshError when a grid node on the
    box boundary is not below the isovalue, and ValueError for a non-finite
    isovalue.
    """
    if not np.isfinite(isovalue):
        raise ValueError(f"isovalue must be finite, got {isovalue}")
    grid = make_grid(box, spacing)
    nx, ny, nz = grid.counts
    vals = np.asarray(evaluator(grid), dtype=np.float64).reshape(grid.shape)
    # min and max carry a nan, with no temporary
    if not (np.isfinite(vals.min()) and np.isfinite(vals.max())):
        raise MeshError("field evaluator produced non-finite values")

    # a cell's case: each corner's bit, shifted from a uint8 view of below
    # into one reused buffer
    below = vals < isovalue
    bits = below.view(np.uint8)
    case = bits[:nx, :ny, :nz].copy()
    shifted = np.empty_like(case)
    for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS[1:], start=1):
        case |= np.left_shift(bits[dx:nx + dx, dy:ny + dy, dz:nz + dz], bit, out=shifted)
    del shifted
    cells = np.flatnonzero((case != 0) & (case != 255))
    if cells.size == 0:
        raise EmptyMeshError(
            f"isovalue {isovalue} is not crossed anywhere inside the box")
    if not _inside_grid(below):
        raise MeshError("the surface reaches the box boundary; the mesh would be open")
    rows = _TRIANGLES[case.ravel()[cells]]
    del case

    # one vertex per cut grid edge (np.diff of a bool array is "not equal"),
    # numbered x-edges, then y-edges, then z-edges, each in C order.  A
    # vertex's edge key is axis * grid nodes + the edge's C-order key: at
    # most 3 * MAX_GRID_POINTS, so int32 holds it, and the keys increase
    # strictly, so a vertex's id is the rank of its key
    xs = [grid.axis_coords(p) for p in range(3)]
    vertices, edge_keys, key_shapes = [], [], []
    for axis in range(3):
        cut = np.diff(below, axis=axis)
        lo = np.nonzero(cut)
        hi = lo[:axis] + (lo[axis] + 1,) + lo[axis + 1:]
        va = vals[lo]
        t = (isovalue - va) / (vals[hi] - va)
        coords = [xs[p][lo[p]] for p in range(3)]
        coords[axis] = coords[axis] + t * (xs[axis][hi[axis]] - coords[axis])
        vertices.append(np.stack(coords))
        edge_keys.append((np.ravel_multi_index(lo, cut.shape) + axis * len(grid)).astype(np.int32))
        key_shapes.append(cut.shape)
    del vals, below, cut
    edge_keys = np.concatenate(edge_keys)

    # each triangle corner is one table entry of a crossed cell's row (the
    # -1 padding is skipped): its cell, and the cube edge that holds it
    corner = np.flatnonzero(rows >= 0)
    edge = rows.ravel()[corner]
    corner //= rows.shape[1]
    del rows
    ijk = np.unravel_index(cells, (nx, ny, nz))
    triangles = np.empty(corner.size, dtype=np.int64)
    for axis, shape in enumerate(key_shapes):
        on = np.flatnonzero(_EDGE_AXES[edge] == axis)
        offset = np.ravel_multi_index(_EDGE_STARTS, shape)
        keys = np.ravel_multi_index(ijk, shape)[corner[on]] + offset[edge[on]]
        triangles[on] = np.searchsorted(edge_keys, (keys + axis * len(grid)).astype(np.int32))
    return TriMesh(vertices=np.concatenate(vertices, axis=1).T,
                   triangles=triangles.reshape(-1, 3), edge_keys=edge_keys)


def _area_volume(mesh: TriMesh) -> tuple[float, float]:
    """(area, volume) from one corner gather and one cross product: half the
    summed cross-product magnitudes, and the absolute sum of the signed
    tetrahedra that each triangle spans with the origin, which is orientation-
    and translation-invariant and is the enclosed volume of a closed mesh."""
    v1, v2, v3 = mesh.corners()
    cross = np.cross(v2 - v1, v3 - v1)
    return (float(0.5 * np.linalg.norm(cross, axis=1).sum()),
            float(abs((cross * (-(v1 + v2 + v3) / 3.0)).sum() / 6.0)))


def mesh_area(mesh: TriMesh) -> float:
    return _area_volume(mesh)[0]


def mesh_volume(mesh: TriMesh) -> float:
    """Volume enclosed by a closed mesh."""
    return _area_volume(mesh)[1]


def compare_surfaces(eval_a, eval_b, box: Box, spacing: float, isovalue: float) -> dict:
    """Mesh two fields on one grid and report areas, volumes, errors, Hausdorff.

    eval_a is the reference (original) field, eval_b the approximation; both
    map a GridSpec to its node values, as in extract_isosurface.  Relative
    errors are against the reference.
    """
    mesh_a = extract_isosurface(eval_a, box, spacing, isovalue)
    mesh_b = extract_isosurface(eval_b, box, spacing, isovalue)
    (area_a, vol_a), (area_b, vol_b) = _area_volume(mesh_a), _area_volume(mesh_b)
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
    write_lines(path, header_lines,
                [*(f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()),
                 *(f"f {a} {b} {c}" for a, b, c in (mesh.triangles + 1).tolist())])
