"""Iso-surface extraction, area/volume, Hausdorff distance, surface comparison."""

import dataclasses
import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import erbfit.distance
from erbfit._mc_tables import TRI_TABLE
from erbfit.distance import (
    _bounded_max,
    _CellList,
    _edge_lengths,
    _point_triangle_distance_sq,
    _rounding_margin,
    _triangle_samples,
)
from erbfit.field import Box, GaussianField, GridSpec, bounding_box
from erbfit.initializer import init_model
from erbfit.model import load_model
from erbfit.mesh import (
    EmptyMeshError,
    MeshError,
    TriMesh,
    compare_surfaces,
    extract_isosurface,
    hausdorff,
    mesh_area,
    mesh_volume,
    write_obj,
)
from erbfit.sampler import _inside_grid, make_grid

SPHERE_R = 1.5
SPHERE_AREA = 4.0 * np.pi * SPHERE_R**2       # 28.2743...
SPHERE_VOLUME = 4.0 / 3.0 * np.pi * SPHERE_R**3  # 14.1372...


def _sphere_field():
    return GaussianField(centers=np.zeros((1, 3)), radii=np.array([SPHERE_R]), decay=0.5)


def _point_path(f):
    """f's evaluator by the point path, at the nodes of a GridSpec or at (M, 3) points.

    On the 0.25 and 0.5 A lattices about the sphere's center phi is exactly
    1 at 30 nodes.  The grid sum's factored product, within rounding of the
    point path, puts 8 of them below 1, so the sphere is meshed from the
    point path's values, which keep those ties on the isovalue.
    """
    return lambda where: f.values(where.points() if isinstance(where, GridSpec) else where)


def _sphere_mesh(spacing=0.2):
    f = _sphere_field()
    box = Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0))
    return extract_isosurface(_point_path(f), box, spacing, 1.0)


def _unit_cube_mesh():
    # 12 consistently outward-oriented triangles over [0,1]^3
    v = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=float)
    t = np.array([
        [0, 2, 1], [0, 3, 2],   # bottom
        [4, 5, 6], [4, 6, 7],   # top
        [0, 1, 5], [0, 5, 4],   # front
        [2, 3, 7], [2, 7, 6],   # back
        [0, 4, 7], [0, 7, 3],   # left
        [1, 2, 6], [1, 6, 5],   # right
    ])
    return TriMesh(vertices=v, triangles=t)


_CORNERS = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
            (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
_EDGE_CORNERS = ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                 (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7))


def _reference_extract(evaluator, box, spacing, isovalue):
    """The per-cell marching-cubes loop that extract_isosurface replaced.

    Vertices are numbered in first-use order, so only triangle coordinates
    (not vertex ids) are comparable with extract_isosurface.
    """
    grid = make_grid(box, spacing)
    nx, ny, nz = grid.counts
    vals = np.asarray(evaluator(grid.points())).reshape(nx + 1, ny + 1, nz + 1)
    xs = [grid.axis_coords(p) for p in range(3)]
    vertices, vertex_on_edge, triangles = [], {}, []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                corner = [(i + dx, j + dy, k + dz) for dx, dy, dz in _CORNERS]
                cvals = [vals[c] for c in corner]
                case = sum(1 << bit for bit, v in enumerate(cvals) if v < isovalue)
                if case in (0, 255):
                    continue
                edge_vertex = [-1] * 12
                for e, (a, b) in enumerate(_EDGE_CORNERS):
                    if (cvals[a] < isovalue) == (cvals[b] < isovalue):
                        continue
                    key = tuple(sorted((corner[a], corner[b])))
                    if key not in vertex_on_edge:
                        t = (isovalue - cvals[a]) / (cvals[b] - cvals[a])
                        vertex_on_edge[key] = len(vertices)
                        vertices.append([xs[p][corner[a][p]] + t * (xs[p][corner[b][p]]
                                                                   - xs[p][corner[a][p]])
                                         for p in range(3)])
                    edge_vertex[e] = vertex_on_edge[key]
                row = [e for e in TRI_TABLE[case] if e >= 0]
                triangles.extend([edge_vertex[e] for e in row[n:n + 3]]
                                 for n in range(0, len(row), 3))
    return TriMesh(vertices=np.array(vertices), triangles=np.array(triangles))


# cube edge e runs along axis _CUBE_EDGES[e][0] from the cell corner offset
# _CUBE_EDGES[e][1], as in erbfit.mesh
_CUBE_EDGES = (
    (0, (0, 0, 0)), (1, (1, 0, 0)), (0, (0, 1, 0)), (1, (0, 0, 0)),
    (0, (0, 0, 1)), (1, (1, 0, 1)), (0, (0, 1, 1)), (1, (0, 0, 1)),
    (2, (0, 0, 0)), (2, (1, 0, 0)), (2, (1, 1, 0)), (2, (0, 1, 0)),
)


def _padded_table_extract(evaluator, box, spacing, isovalue):
    """extract_isosurface as it was before it kept only the table entries
    that exist, frozen as the bit-identity oracle: (cells, 16) int64 table
    rows, a (cells, 12) vertex id for every cube edge, take_along_axis over
    both and the rows >= 0 mask."""
    grid = make_grid(box, spacing)
    nx, ny, nz = grid.counts
    vals = np.asarray(evaluator(grid), dtype=np.float64).reshape(grid.shape)
    if not np.isfinite(vals).all():
        raise MeshError("field evaluator produced non-finite values")
    below = vals < isovalue
    case = np.zeros((nx, ny, nz), dtype=np.uint8)
    for bit, (dx, dy, dz) in enumerate(_CORNERS):
        case |= below[dx:nx + dx, dy:ny + dy, dz:nz + dz].astype(np.uint8) << bit
    cells = np.flatnonzero((case != 0) & (case != 255))
    if cells.size == 0:
        raise EmptyMeshError(f"isovalue {isovalue} is not crossed anywhere inside the box")
    if not _inside_grid(below):
        raise MeshError("the surface reaches the box boundary; the mesh would be open")
    xs = [grid.axis_coords(p) for p in range(3)]
    ci, cj, ck = np.unravel_index(cells, (nx, ny, nz))
    edge_vertex = np.empty((cells.size, 12), dtype=np.int64)
    vertices, edge_keys, n = [], [], 0
    for axis in range(3):
        cut = np.diff(below, axis=axis)
        lo = np.nonzero(cut)
        hi = lo[:axis] + (lo[axis] + 1,) + lo[axis + 1:]
        va = vals[lo]
        t = (isovalue - va) / (vals[hi] - va)
        coords = [xs[p][lo[p]] for p in range(3)]
        coords[axis] = coords[axis] + t * (xs[axis][hi[axis]] - coords[axis])
        vertices.append(np.stack(coords))
        keys = np.ravel_multi_index(lo, cut.shape)
        edge_keys.append((keys + axis * vals.size).astype(np.int32))
        for e, (edge_axis, (dx, dy, dz)) in enumerate(_CUBE_EDGES):
            if edge_axis == axis:
                edge_vertex[:, e] = n + np.searchsorted(
                    keys, np.ravel_multi_index((ci + dx, cj + dy, ck + dz), cut.shape))
        n += t.size
    rows = np.array(TRI_TABLE, dtype=np.int64)[case.ravel()[cells]]
    triangles = np.take_along_axis(edge_vertex, rows, axis=1)[rows >= 0]
    return TriMesh(vertices=np.concatenate(vertices, axis=1).T,
                   triangles=triangles.reshape(-1, 3), edge_keys=np.concatenate(edge_keys))


def test_triangle_table_is_the_published_one():
    # decoded at import from its string form: 16 edge indices per case, -1 padded
    assert len(TRI_TABLE) == 256 and all(len(case) == 16 for case in TRI_TABLE)
    digest = hashlib.sha256(np.array(TRI_TABLE, dtype=np.int64).tobytes()).hexdigest()
    assert digest == "82ede6f8851e2effa39ae5f7fc5997f7d8e40adb5710b50dc9090fd04c026c94"


def _assert_same_mesh(evaluator, box, spacing, isovalue):
    got = extract_isosurface(evaluator, box, spacing, isovalue)
    ref = _reference_extract(evaluator, box, spacing, isovalue)
    assert got.vertices.shape == ref.vertices.shape
    assert got.n_f == ref.n_f
    np.testing.assert_allclose(got.vertices[got.triangles], ref.vertices[ref.triangles],
                               rtol=0, atol=1e-12)
    return got


def _assert_same_bits(evaluator, box, spacing, isovalue):
    got = extract_isosurface(evaluator, box, spacing, isovalue)
    ref = _padded_table_extract(evaluator, box, spacing, isovalue)
    assert got.vertices.shape == ref.vertices.shape
    assert got.vertices.tobytes() == ref.vertices.tobytes()
    assert got.triangles.dtype == np.int64 and np.array_equal(got.triangles, ref.triangles)
    assert got.edge_keys.dtype == np.int32 and np.array_equal(got.edge_keys, ref.edge_keys)


# ---------------------------------------------------------------- TriMesh


def test_trimesh_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        TriMesh(vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 3]]))


def test_trimesh_rejects_degenerate_triangle():
    with pytest.raises(ValueError):
        TriMesh(vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 1]]))


@pytest.mark.parametrize("vertices, triangles, message", [
    # (3, 4) vertices used to be read as 4 scrambled rows
    (np.arange(12.0).reshape(3, 4), [[0, 1, 2]], r"expected \(M, 3\) points, got shape \(3, 4\)"),
    # a fractional index used to be truncated to 2
    (np.eye(3), [[0, 1, 2.7]], r"expected \(F, 3\) integer triangles, got float64 \(1, 3\)"),
    (np.eye(3), [0, 1, 2], r"expected \(F, 3\) integer triangles, got int64 \(3,\)"),
    # a nan vertex used to make mesh_area nan
    ([[0.0, 0, 0], [1.0, 0, 0], [0.0, np.nan, 0]], [[0, 1, 2]], "coordinates must be finite"),
    ([[0.0, 0, 0], [np.inf, 0, 0], [0.0, 1.0, 0]], [[0, 1, 2]], "coordinates must be finite"),
], ids=["vertices-3x4", "fractional-index", "flat-triangles", "nan-vertex", "inf-vertex"])
def test_trimesh_refuses_what_the_point_gate_refuses(vertices, triangles, message):
    with pytest.raises(ValueError, match=message):
        TriMesh(vertices=vertices, triangles=triangles)


def test_trimesh_takes_an_empty_triangle_list():
    m = TriMesh(vertices=np.eye(3), triangles=[])
    assert m.triangles.shape == (0, 3) and m.triangles.dtype == np.int64


def test_extracted_vertices_are_a_view_of_the_coordinate_major_array():
    # the gate and the Hausdorff cell list read (3, V) without a copy
    mesh = _sphere_mesh(spacing=0.3)
    assert mesh.vertices.T.flags.c_contiguous
    rebuilt = TriMesh(vertices=mesh.vertices, triangles=mesh.triangles)
    assert np.shares_memory(rebuilt.vertices, mesh.vertices)
    assert np.shares_memory(_CellList(mesh, 1.0, 0.0).vertices_t, mesh.vertices)
    assert mesh.corners()[0].shape == (mesh.n_f, 3)


def test_corners_are_one_gather_in_both_layouts(rng):
    # the (F, 3) corners that area and volume read are the transpose views of
    # the (3, F) ones that the Hausdorff distance reads, on the bits of plain
    # row indexing
    triangles = np.array([rng.choice(50, 3, replace=False) for _ in range(200)])
    mesh = TriMesh(vertices=rng.normal(size=(50, 3)) * 10.0, triangles=triangles)
    v, t = mesh.vertices, mesh.triangles
    for c, corner in enumerate(mesh.corners()):
        assert np.array_equal(corner, v[t[:, c]])
        assert corner.T.flags.c_contiguous and corner.base is not None
    for c, corner_t in enumerate(mesh.corners_t()):
        assert np.array_equal(corner_t, v[t[:, c]].T)


def test_translated_moves_vertices_only():
    m = _unit_cube_mesh()
    shifted = m.translated(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(shifted.vertices, m.vertices + [1.0, 2.0, 3.0])
    assert np.array_equal(shifted.triangles, m.triangles)


@pytest.mark.parametrize("keys", [np.arange(3.0), np.arange(2), np.arange(3).reshape(1, 3),
                                  np.array([True, False, True]), "abc"])
def test_trimesh_refuses_edge_keys_that_are_not_one_integer_per_vertex(keys):
    with pytest.raises(ValueError, match=r"expected \(3,\) integer edge keys"):
        TriMesh(vertices=np.eye(3), triangles=np.array([[0, 1, 2]]), edge_keys=keys)


def test_extracted_edge_keys_name_each_vertex_s_grid_edge(tmp_path):
    # one int32 key per vertex, axis * grid nodes + the C-order key of its
    # cut edge, strictly increasing; the vertex lies on that edge.  A hand-built
    # or translated mesh has none, and the keys never reach the OBJ file
    box = Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0))
    mesh = _sphere_mesh(spacing=0.5)
    keys = mesh.edge_keys
    assert keys.dtype == np.int32 and keys.shape == (mesh.vertices.shape[0],)
    assert (np.diff(keys) > 0).all()
    grid = make_grid(box, 0.5)
    nodes = int(np.prod(grid.shape))
    for axis in range(3):
        on = keys // nodes == axis
        cut_shape = tuple(n - (p == axis) for p, n in enumerate(grid.shape))
        index = np.unravel_index(keys[on] % nodes, cut_shape)
        for p in range(3):
            x = grid.axis_coords(p)
            if p == axis:
                assert (x[index[p]] <= mesh.vertices[on, p]).all()
                assert (mesh.vertices[on, p] <= x[index[p] + 1]).all()
            else:
                assert np.array_equal(mesh.vertices[on, p], x[index[p]])
    bare = TriMesh(vertices=mesh.vertices, triangles=mesh.triangles)
    assert bare.edge_keys is None
    assert mesh.translated(np.array([1.0, 0.0, 0.0])).edge_keys is None
    write_obj(mesh, tmp_path / "keys.obj", ["h"])
    write_obj(bare, tmp_path / "bare.obj", ["h"])
    assert (tmp_path / "keys.obj").read_bytes() == (tmp_path / "bare.obj").read_bytes()


# ---------------------------------------------------------------- extraction


def test_sphere_vertices_sit_on_level_set():
    m = _sphere_mesh(spacing=0.2)
    r = np.linalg.norm(m.vertices, axis=1)
    # linear interpolation error at 0.2 A spacing stays a few 1e-3
    assert r.min() > SPHERE_R - 0.01
    assert r.max() < SPHERE_R + 0.01


def test_extraction_is_watertight_and_deterministic():
    m = _sphere_mesh(spacing=0.25)
    edges = np.sort(
        m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2, 2).reshape(-1, 2), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    assert set(counts.tolist()) == {2}
    again = _sphere_mesh(spacing=0.25)
    assert np.array_equal(m.vertices, again.vertices)
    assert np.array_equal(m.triangles, again.triangles)


def test_constant_field_has_no_surface():
    box = Box(lo=np.zeros(3), hi=np.ones(3))
    with pytest.raises(EmptyMeshError):
        extract_isosurface(lambda pts: np.zeros(len(pts)), box, 0.5, 1.0)


def test_surface_reaching_the_box_is_refused():
    # the sphere of radius 1.5 crosses the faces of a box of half-width 1
    f = _sphere_field()
    box = Box(lo=np.full(3, -1.0), hi=np.full(3, 1.0))
    with pytest.raises(MeshError, match="the mesh would be open"):
        extract_isosurface(f.values, box, 0.25, 1.0)


@pytest.mark.parametrize("isovalue", [np.nan, np.inf])
def test_non_finite_isovalue_is_refused(isovalue):
    box = Box(lo=np.zeros(3), hi=np.ones(3))
    with pytest.raises(ValueError, match="isovalue must be finite"):
        extract_isosurface(lambda grid: np.zeros(len(grid)), box, 0.5, isovalue)


def test_non_finite_field_values_are_refused():
    box = Box(lo=np.zeros(3), hi=np.ones(3))
    with pytest.raises(MeshError, match="non-finite values"):
        extract_isosurface(lambda grid: np.full(len(grid), np.nan), box, 0.5, 1.0)


def test_matches_reference_on_sphere():
    f = _sphere_field()
    _assert_same_mesh(_point_path(f), Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0)), 0.25, 1.0)


def test_matches_reference_on_bundled_field(molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5, isovalue=1.0)
    _assert_same_mesh(f.values, bounding_box(molecule), 0.5, 1.0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n_atoms=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       isovalue=st.floats(0.3, 2.0), spacing=st.floats(0.45, 0.8))
def test_matches_reference_on_random_fields(n_atoms, seed, isovalue, spacing):
    # overlapping atoms at several isovalues reach the ambiguous cases of the
    # table; the box is wide enough that the surface never reaches it
    rng = np.random.default_rng(seed)
    f = GaussianField(centers=rng.uniform(-2.5, 2.5, (n_atoms, 3)),
                      radii=rng.uniform(1.0, 2.0, n_atoms), decay=0.5)
    box = Box(lo=np.full(3, -8.0), hi=np.full(3, 8.0))
    try:
        mesh = _assert_same_mesh(f.values, box, spacing, isovalue)
    except EmptyMeshError:
        assert f.values(make_grid(box, spacing).points()).max() < isovalue
        return
    # closed: every edge is shared by exactly two triangles
    edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    assert set(np.unique(edges, axis=0, return_counts=True)[1].tolist()) == {2}


def test_matches_padded_table_oracle_on_sphere():
    f = _sphere_field()
    _assert_same_bits(_point_path(f), Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0)), 0.25, 1.0)


@pytest.mark.parametrize("spacing", [0.35, 0.5, 1.0])
def test_matches_padded_table_oracle_on_bundled_field(molecule, spacing):
    f = GaussianField.from_molecule(molecule, decay=0.5, isovalue=1.0)
    _assert_same_bits(f.values, bounding_box(molecule), spacing, 1.0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n_atoms=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       isovalue=st.floats(0.3, 2.0), spacing=st.floats(0.45, 0.8))
def test_matches_padded_table_oracle_on_random_fields(n_atoms, seed, isovalue, spacing):
    rng = np.random.default_rng(seed)
    f = GaussianField(centers=rng.uniform(-2.5, 2.5, (n_atoms, 3)),
                      radii=rng.uniform(1.0, 2.0, n_atoms), decay=0.5)
    box = Box(lo=np.full(3, -8.0), hi=np.full(3, 8.0))
    try:
        _padded_table_extract(f.values, box, spacing, isovalue)
    except EmptyMeshError:
        with pytest.raises(EmptyMeshError):
            extract_isosurface(f.values, box, spacing, isovalue)
        return
    _assert_same_bits(f.values, box, spacing, isovalue)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_refusals_keep_their_order(bad):
    # a non-finite value is named before anything else, and a field that is
    # not crossed is empty before its boundary is looked at
    box = Box(lo=np.zeros(3), hi=np.ones(3))
    values = np.full(27, 2.0)
    with pytest.raises(EmptyMeshError):
        extract_isosurface(lambda grid: values, box, 0.5, 1.0)
    values[13] = bad
    with pytest.raises(MeshError, match="non-finite values"):
        extract_isosurface(lambda grid: values, box, 0.5, 1.0)


@pytest.mark.parametrize("name, nodes, n_f", [("bundled", 51_282, 2_384), ("random", 35_937, 1_676)])
def test_marching_memory_is_the_value_grid_and_o_triangles(molecule, name, nodes, n_f):
    # at 0.5 A; with the padded per-cell tables the bytes above the values
    # read 320 a triangle on the bundled field and 330 on the random one
    if name == "bundled":
        f, box = GaussianField.from_molecule(molecule, decay=0.5, isovalue=1.0), bounding_box(molecule)
    else:
        rng = np.random.default_rng(7)
        f = GaussianField(centers=rng.uniform(-2.5, 2.5, (10, 3)),
                          radii=rng.uniform(1.0, 2.0, 10), decay=0.5)
        box = Box(lo=np.full(3, -8.0), hi=np.full(3, 8.0))
    values = f.values(make_grid(box, 0.5))
    tracemalloc.start()
    try:
        mesh = extract_isosurface(lambda grid: values.copy(), box, 0.5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (values.size, mesh.n_f) == (nodes, n_f)
    assert (peak - 8 * values.size) / mesh.n_f < 200


# ---------------------------------------------------------------- area/volume


def test_area_single_right_triangle():
    m = TriMesh(vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]),
                triangles=np.array([[0, 1, 2]]))
    assert mesh_area(m) == pytest.approx(0.5, abs=1e-15)


def test_cube_area_and_volume():
    m = _unit_cube_mesh()
    assert mesh_area(m) == pytest.approx(6.0, abs=1e-12)
    assert mesh_volume(m) == pytest.approx(1.0, abs=1e-12)


def test_volume_translation_invariant():
    m = _unit_cube_mesh()
    far = m.translated(np.array([100.0, -50.0, 7.0]))
    assert mesh_volume(far) == pytest.approx(1.0, rel=1e-9)


def test_volume_orientation_flip_invariant():
    m = _unit_cube_mesh()
    flipped = TriMesh(vertices=m.vertices, triangles=m.triangles[:, [0, 2, 1]])
    assert mesh_volume(flipped) == pytest.approx(mesh_volume(m), rel=1e-12)


def test_metrics_invariant_under_rigid_motion():
    from erbfit.model import rotations
    m = _sphere_mesh(spacing=0.3)
    rot = rotations(np.array([[0.3, -1.1, 2.0]]))[0][0]
    moved = TriMesh(vertices=m.vertices @ rot.T + [5.0, 1.0, -2.0],
                    triangles=m.triangles)
    assert mesh_area(moved) == pytest.approx(mesh_area(m), rel=1e-12)
    assert mesh_volume(moved) == pytest.approx(mesh_volume(m), rel=1e-9)


def test_sphere_area_volume_converge():
    m = _sphere_mesh(spacing=0.2)
    assert mesh_area(m) == pytest.approx(SPHERE_AREA, rel=0.01)
    assert mesh_volume(m) == pytest.approx(SPHERE_VOLUME, rel=0.01)


# ---------------------------------------------------------------- hausdorff


def test_hausdorff_self_is_zero():
    m = _sphere_mesh(spacing=0.3)
    assert hausdorff(m, m) == pytest.approx(0.0, abs=1e-12)


def test_hausdorff_refuses_a_mesh_without_triangles():
    mesh = _sphere_mesh(spacing=0.5)
    empty = TriMesh(vertices=np.eye(3), triangles=[])
    for pair in ((mesh, empty), (empty, mesh), (empty, empty)):
        with pytest.raises(ValueError, match="needs two non-empty meshes"):
            hausdorff(*pair)


def test_hausdorff_symmetric():
    a = _sphere_mesh(spacing=0.3)
    b = a.translated(np.array([0.2, 0.1, 0.0]))
    assert hausdorff(a, b) == hausdorff(b, a)


def test_hausdorff_translated_sphere():
    a = _sphere_mesh(spacing=0.25)
    t = 0.4
    b = a.translated(np.array([t, 0.0, 0.0]))
    h = hausdorff(a, b)
    # sample-based estimate cannot exceed the true value and the pole vertex
    # is itself a sample, so the estimate lands essentially on t
    assert h <= t + 1e-9
    assert h > t - 0.02


def test_hausdorff_lower_bounded_by_vertex_deviation():
    a = _unit_cube_mesh()
    b = a.translated(np.array([0.0, 0.0, 3.0]))
    assert hausdorff(a, b) >= 3.0 - 1e-12


def _reference_triangle_samples(mesh, per_triangle):
    """The sampler before deduplication: every vertex plus the full lattice
    prefix on every triangle, corners and shared edge nodes included."""
    degree = 1
    while (degree + 1) * (degree + 2) // 2 < per_triangle:
        degree += 1
    i, j = np.indices((degree + 1, degree + 1)).reshape(2, -1)
    keep = i + j <= degree
    i, j = i[keep], j[keep]
    bary = np.stack([i, j, degree - i - j], axis=1)[:per_triangle] / degree
    v1, v2, v3 = mesh.corners()
    samples = (bary[None, :, 0, None] * v1[:, None, :]
               + bary[None, :, 1, None] * v2[:, None, :]
               + bary[None, :, 2, None] * v3[:, None, :])
    return np.concatenate([mesh.vertices, samples.reshape(-1, 3)], axis=0)


def _reference_segment_distance_sq(p, a, b):
    """Squared distance from points p to segments a-b, row-major (K, 3) with row sums."""
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    t = ((p - a) * ab).sum(axis=1)
    t = np.divide(t, denom, out=np.zeros_like(t), where=denom > 0)
    np.clip(t, 0.0, 1.0, out=t)
    closest = a + t[:, None] * ab
    d = p - closest
    return (d * d).sum(axis=1)


def _reference_point_triangle_distance_sq(p, a, b, c):
    """Squared exact point-triangle distance, row-major (K, 3) with np.cross."""
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
    n = np.cross(v0, v1)
    nn = (n * n).sum(axis=1)
    pn = (v2 * n).sum(axis=1)
    plane_sq = np.divide(pn * pn, nn, out=np.full_like(nn, np.inf), where=nn > 0)
    plane_sq = np.where(interior, plane_sq, np.inf)
    edge_sq = np.minimum(
        _reference_segment_distance_sq(p, a, b),
        np.minimum(_reference_segment_distance_sq(p, b, c),
                   _reference_segment_distance_sq(p, c, a)),
    )
    return np.minimum(plane_sq, edge_sq)


def _vertex_bounds(points, target):
    """Distance from each point to its nearest target vertex."""
    return cKDTree(target.vertices).query(points, k=1)[0]


def _reference_directed_hausdorff(points, target):
    """The unbounded candidate search on the row-major distance: every point
    is measured against the triangles whose centroid lies within ub +
    max_reach.  Points go 256 at a time and the distances 2^16 pairs at a
    time, so that far meshes, where every triangle is a candidate, stay small
    in memory."""
    v1, v2, v3 = target.corners()
    centroids = (v1 + v2 + v3) / 3.0
    max_reach = float(np.sqrt(max(((v - centroids) ** 2).sum(axis=1).max()
                                  for v in (v1, v2, v3))))
    ub = _vertex_bounds(points, target)
    tree = cKDTree(centroids)
    best = np.full(points.shape[0], np.inf)
    for s in range(0, points.shape[0], 256):
        candidates = tree.query_ball_point(points[s:s + 256], ub[s:s + 256] + max_reach)
        counts = np.array([len(c) for c in candidates], dtype=np.int64)
        tris = np.array([t for c in candidates for t in c], dtype=np.int64)
        owner = np.repeat(np.arange(s, s + len(candidates)), counts)
        for c in range(0, owner.size, 1 << 16):
            o, t = owner[c:c + (1 << 16)], tris[c:c + (1 << 16)]
            d_sq = _reference_point_triangle_distance_sq(points[o], v1[t], v2[t], v3[t])
            starts = np.flatnonzero(np.diff(o, prepend=-1))
            best[o[starts]] = np.minimum(best[o[starts]], np.minimum.reduceat(d_sq, starts))
    return float(np.minimum(np.sqrt(best), ub).max())


def _reference_hausdorff(a, b, per_triangle=10):
    return max(_reference_directed_hausdorff(_reference_triangle_samples(a, per_triangle), b),
               _reference_directed_hausdorff(_reference_triangle_samples(b, per_triangle), a))


def _directed_hausdorff(points, target, floor=0.0):
    """max(floor, max over points of the distance to the target mesh surface).

    The distances are those of _bounded_max, on a cell list whose side is the
    target's longest edge.
    """
    side = float(_edge_lengths(target).max())
    cells = _CellList(target, side, _rounding_margin(side, points, target.vertices))
    return _bounded_max(points.T, cells, floor)[0]


def _samples(mesh):
    """Every sample point of a mesh: its vertices, then its lattice nodes."""
    return np.concatenate([mesh.vertices, _triangle_samples(mesh).T])


def _brute_force_directed(points, target):
    """max over points of the min over every target triangle."""
    corners = target.corners()
    best = 0.0
    for chunk in np.array_split(points, len(points) // 100 + 1):
        d_sq = _reference_point_triangle_distance_sq(
            np.repeat(chunk, target.n_f, axis=0),
            *(np.tile(v, (len(chunk), 1)) for v in corners))
        best = max(best, d_sq.reshape(len(chunk), -1).min(axis=1).max())
    return float(np.sqrt(best))


@pytest.mark.parametrize("pair", ["inflated", "translated"])
def test_directed_hausdorff_matches_brute_force(monkeypatch, pair):
    # small blocks, so that many block boundaries and a partial last block occur
    monkeypatch.setattr(erbfit.distance, "_HAUSDORFF_BLOCK", 7)
    a = _sphere_mesh(spacing=0.5)
    if pair == "inflated":
        b = _inflated_sphere_mesh()
    else:
        b = a.translated(np.array([0.3, -0.2, 0.1]))
    for points, target in ((_samples(a), b), (_samples(b), a)):
        assert _directed_hausdorff(points, target) == pytest.approx(
            _brute_force_directed(points, target), rel=0, abs=1e-12)


def _inflated_sphere_mesh(spacing=0.45):
    big = GaussianField(centers=np.zeros((1, 3)), radii=np.array([1.05 * SPHERE_R]),
                        decay=0.5)
    return extract_isosurface(big.values, Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0)),
                              spacing, 1.0)


def _bundled_meshes(molecule):
    """The bundled field's mesh and its stand-in model's mesh at 0.5 A."""
    field = GaussianField.from_molecule(molecule, decay=0.5, isovalue=1.0)
    standin = init_model(molecule, decay=0.45)
    box = bounding_box(molecule)
    return (extract_isosurface(field.values, box, 0.5, 1.0),
            extract_isosurface(standin.values, box, 0.5, 1.0))


def _open_meshes():
    tri = TriMesh(vertices=np.array([[0.1, 0.2, 0.3], [1.7, -0.4, 0.2], [0.3, 1.9, -0.6]]),
                  triangles=np.array([[0, 1, 2]]))
    # two triangles that list their shared edge 1-2 in opposite directions,
    # and a non-manifold fin: three triangles on the edge 0-1
    strip = TriMesh(vertices=np.array([[0.0, 0, 0], [1.3, 0.1, 0], [0.2, 1.1, 0.1],
                                       [1.4, 1.2, 0.3]]),
                    triangles=np.array([[0, 1, 2], [2, 1, 3]]))
    fin = TriMesh(vertices=np.array([[0.0, 0, 0], [1.0, 0.3, 0.1], [0.4, 1.0, 0.0],
                                     [0.3, -0.9, 0.2], [0.5, 0.1, 1.2]]),
                  triangles=np.array([[0, 1, 2], [1, 0, 3], [0, 4, 1]]))
    return {"triangle": tri, "strip": strip, "fin": fin}


def _assert_distinct_reference_samples(mesh, distinct=True):
    got = _samples(mesh)
    if distinct:
        assert np.unique(got, axis=0).shape[0] == got.shape[0], "a sample is repeated"
    assert np.array_equal(np.unique(got, axis=0),
                          np.unique(_reference_triangle_samples(mesh, 10), axis=0))


def test_samples_on_a_mesh_with_coincident_vertices():
    # at 0.3 A grid nodes lie exactly on the sphere, so several cut edges put
    # their vertex on the same node: the mesh itself repeats points, which the
    # sampler (one sample per vertex, edge node and interior node) keeps
    mesh = _sphere_mesh(spacing=0.3)
    assert np.unique(mesh.vertices, axis=0).shape[0] < mesh.vertices.shape[0]
    _assert_distinct_reference_samples(mesh, distinct=False)


@pytest.mark.parametrize("name", ["sphere", "bundled", "triangle", "strip", "fin"])
def test_samples_are_the_distinct_reference_points(name, molecule):
    if name == "sphere":
        mesh = _sphere_mesh(spacing=0.2)
    elif name == "bundled":
        mesh = _bundled_meshes(molecule)[0]
    else:
        mesh = _open_meshes()[name]
    _assert_distinct_reference_samples(mesh)
    if name == "bundled":
        # V + 4F: every vertex, 3 edge nodes per triangle (each edge of the
        # closed mesh is held by two), and the one interior node
        assert _samples(mesh).shape[0] == mesh.vertices.shape[0] + 4 * mesh.n_f


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n_atoms=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       spacing=st.floats(0.45, 0.8))
def test_samples_are_the_distinct_reference_points_on_random_meshes(n_atoms, seed, spacing):
    rng = np.random.default_rng(seed)
    f = GaussianField(centers=rng.uniform(-2.5, 2.5, (n_atoms, 3)),
                      radii=rng.uniform(1.0, 2.0, n_atoms), decay=0.5)
    mesh = extract_isosurface(f.values, Box(lo=np.full(3, -8.0), hi=np.full(3, 8.0)),
                              spacing, 1.0)
    _assert_distinct_reference_samples(mesh)


def test_hausdorff_refuses_every_lattice_but_ten():
    m = _unit_cube_mesh()
    for k in (1, 4, 15):
        with pytest.raises(ValueError, match="10 samples per triangle"):
            hausdorff(m, m, k)


@pytest.mark.parametrize("k", [7, 1000, 30000])
def test_distance_kernel_matches_reference(rng, k):
    p, a, b, c = (rng.normal(size=(k, 3)) * rng.uniform(0.1, 10.0, (k, 1)) for _ in range(4))
    # degenerate triangles: a repeated corner, and three collinear corners
    b[::5] = a[::5]
    c[1::5] = a[1::5] + 0.5 * (b[1::5] - a[1::5])
    # points on an edge, and on a corner
    p[2::5] = a[2::5] + 0.25 * (c[2::5] - a[2::5])
    p[3::5] = b[3::5]
    args = [np.ascontiguousarray(x.T) for x in (p, a, b, c)]
    got = _point_triangle_distance_sq(*args)
    assert np.array_equal(got, _reference_point_triangle_distance_sq(p, a, b, c))
    # the same bits in any block: the pairs cut into uneven chunks
    cuts = [0, *np.unique(rng.integers(1, k, 4)), k]
    pieces = [_point_triangle_distance_sq(*(np.ascontiguousarray(x[:, s:e]) for x in args))
              for s, e in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(got, np.concatenate(pieces))


@pytest.mark.parametrize("pair", ["inflated", "translated", "bundled-standin"])
def test_hausdorff_matches_parent_pipeline(pair, molecule):
    # same value, to the bit, as the full lattice on every triangle measured
    # with the row-major distance
    if pair == "bundled-standin":
        a, b = _bundled_meshes(molecule)
    else:
        a = _sphere_mesh(spacing=0.5)
        b = _inflated_sphere_mesh() if pair == "inflated" else \
            a.translated(np.array([0.3, -0.2, 0.1]))
    assert hausdorff(a, b) == _reference_hausdorff(a, b)


@pytest.mark.parametrize("pair", ["sphere", "bundled"])
def test_nearest_vertex_is_the_same_for_any_pair_budget(monkeypatch, pair, molecule):
    # the chunks of (point, vertex) pairs change with the budget, and a tie
    # goes to the earliest pair that attains the minimum across chunks too;
    # the 0.3 A sphere repeats vertices, so many of its points tie
    if pair == "sphere":
        a = _sphere_mesh(spacing=0.3)
        assert np.unique(a.vertices, axis=0).shape[0] < a.vertices.shape[0]
        directions = [(a, a)]
    else:
        a, b = _bundled_meshes(molecule)
        directions = [(a, b), (b, a)]
    side = max(float(erbfit.distance._edge_lengths(m).max()) for m in directions[0])
    for source, target in directions:
        points = _samples(source)
        cells = erbfit.distance._CellList(
            target, side, erbfit.distance._rounding_margin(side, points, target.vertices))
        found = []
        for budget in (1024, 16384, 32768):
            monkeypatch.setattr(erbfit.distance, "_PAIR_BUDGET", budget)
            found.append(cells.nearest(points.T))
        for distance, index in found[1:]:
            assert np.array_equal(distance, found[0][0])
            assert np.array_equal(index, found[0][1])


def test_far_points_search_only_the_columns_of_their_cube(monkeypatch):
    # a slab 20 x 20 x 5 cells wide and points 9 A above it: a point's
    # searches, from its distance to the cells' box and then within the
    # distance found, meet 196 to 400 of the 400 (x, y) columns and take one
    # run per column, never one run of every vertex, so no point meets more
    # than 768 of the 3294 vertices at once.  Both searches are exact: the
    # nearest vertex against every vertex, the candidate triangles against
    # every triangle
    g = np.arange(5) * 3.0
    centers = np.array([[x, y, 0.0] for x in g for y in g])
    field = GaussianField(centers=centers, radii=np.full(25, 1.6), decay=0.5)
    target = extract_isosurface(field.values, Box(lo=np.array([-4.0, -4.0, -4.0]),
                                                  hi=np.array([16.0, 16.0, 4.0])), 0.5, 1.0)
    rng = np.random.default_rng(0)
    points = np.column_stack([rng.uniform(0.0, 12.0, (20, 2)),
                              np.full(20, target.vertices[:, 2].max() + 9.0)])
    side = float(_edge_lengths(target).max())
    cells = _CellList(target, side, _rounding_margin(side, points, target.vertices))
    assert target.vertices.shape[0] == 3294
    assert cells.dims.ravel().tolist() == [20, 20, 5]
    most = []
    pairs = _CellList.pairs

    def recording(self, *args):
        for owner, item in pairs(self, *args):
            most.append(int(np.bincount(owner).max()))
            yield owner, item

    monkeypatch.setattr(_CellList, "pairs", recording)
    ub, _ = cells.nearest(points.T)
    assert max(most) <= 768
    d = points[:, None, :] - target.vertices[None]
    assert np.array_equal(ub, np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2).min(axis=1))
    best = cells.candidate_least_sq(points.T, np.arange(20), ub)
    every = [_point_triangle_distance_sq(np.repeat(p[:, None], target.n_f, axis=1),
                                         *target.corners_t()).min() for p in points]
    assert np.array_equal(np.minimum(np.sqrt(best), ub), np.minimum(np.sqrt(every), ub))


def test_hausdorff_memory_on_the_bundled_pair(molecule):
    # the pair budget bounds the chunks of both searches, the nearest-vertex
    # one and the candidate-triangle one (numpy reports its buffers to
    # tracemalloc)
    a, b = _bundled_meshes(molecule)
    tracemalloc.start()
    try:
        hausdorff(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_pair_chunks_follow_the_pair_budget_not_the_block(monkeypatch, molecule):
    # _HAUSDORFF_BLOCK sizes only the blocks of _bounded_max: with blocks of 3
    # points the nearest-vertex search still fills chunks past 2 * 8 * 3
    # pairs, and none reaches 2 * _PAIR_BUDGET
    a, b = _bundled_meshes(molecule)
    monkeypatch.setattr(erbfit.distance, "_HAUSDORFF_BLOCK", 3)
    sizes = []
    pairs = erbfit.distance._CellList.pairs

    def recording(self, *args):
        for owner, item in pairs(self, *args):
            sizes.append(owner.size)
            yield owner, item

    monkeypatch.setattr(erbfit.distance._CellList, "pairs", recording)
    hausdorff(a, b)
    assert max(sizes) > 2 * 8 * 3
    assert max(sizes) < 2 * erbfit.distance._PAIR_BUDGET


def test_directed_hausdorff_point_without_candidates():
    # the first point's nearest target vertex belongs to no triangle and no
    # triangle is near: it keeps that vertex distance as its bound, and the
    # points after it in the block keep their own minima
    target = TriMesh(vertices=np.array([[0.0, 0, 0], [100.0, 0, 0], [100.0, 1, 0],
                                        [100.0, 0, 1]]),
                     triangles=np.array([[1, 2, 3]]))
    points = np.array([[0.0, 0.0, 0.5], [100.0, 0.2, 0.2], [103.0, 0.2, 0.2]])
    assert _directed_hausdorff(points, target) == pytest.approx(3.0, abs=1e-12)
    assert _directed_hausdorff(points[:2], target) == pytest.approx(0.5, abs=1e-12)
    # no point at all: the floor, and no bound
    lo, bound = _bounded_max(np.empty((3, 0)), _CellList(target, 1.0, 0.0), 0.25)
    assert lo == 0.25 and bound.shape == (0,)


def _counting_distance(monkeypatch):
    """Patch the distance kernel to record how many pairs each call receives."""
    pairs = []
    kernel = erbfit.distance._point_triangle_distance_sq

    def counting(p, a, b, c):
        pairs.append(p.shape[1])
        return kernel(p, a, b, c)

    monkeypatch.setattr(erbfit.distance, "_point_triangle_distance_sq", counting)
    return pairs


def _unbounded_pairs(a, b):
    """(point, triangle) pairs of the candidate pass over every sample point, both directions."""
    total = 0
    for points, target in ((_samples(a), b), (_samples(b), a)):
        v1, v2, v3 = target.corners()
        centroids = (v1 + v2 + v3) / 3.0
        max_reach = np.sqrt(max(((v - centroids) ** 2).sum(axis=1).max() for v in (v1, v2, v3)))
        total += int(cKDTree(centroids).query_ball_point(
            points, _vertex_bounds(points, target) + max_reach, return_length=True).sum())
    return total


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n_atoms=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       spacing=st.floats(0.5, 0.8), block=st.integers(3, 64),
       copy=st.sampled_from(["perturbed", "translated", "shifted"]))
def test_bounded_hausdorff_is_the_unbounded_one(n_atoms, seed, spacing, block, copy):
    # small blocks, so that the bound pass and the descending pass span many
    # blocks and the descending pass stops inside them; a copy shifted by
    # several edge lengths leaves many triangles whose lattice can still
    # raise the maximum after the vertices
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.5, 2.5, (n_atoms, 3))
    radii = rng.uniform(1.0, 2.0, n_atoms)
    box = Box(lo=np.full(3, -8.0), hi=np.full(3, 8.0))
    a = extract_isosurface(GaussianField(centers=centers, radii=radii, decay=0.5).values,
                           box, spacing, 1.0)
    if copy == "perturbed":
        moved = GaussianField(centers=centers + rng.normal(0.0, 0.3, centers.shape),
                              radii=radii * rng.uniform(0.9, 1.1, n_atoms), decay=0.5)
        b = extract_isosurface(moved.values, box, spacing, 1.0)
    elif copy == "translated":
        b = a.translated(rng.uniform(-1.0, 1.0, 3))
    else:
        direction = rng.normal(size=3)
        b = a.translated(rng.uniform(2.0, 4.0) * direction / np.linalg.norm(direction))
    d_ab = _reference_directed_hausdorff(_reference_triangle_samples(a, 10), b)
    h = max(d_ab, _reference_directed_hausdorff(_reference_triangle_samples(b, 10), a))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(erbfit.distance, "_HAUSDORFF_BLOCK", block)
        assert hausdorff(a, b) == h
        assert hausdorff(b, a) == h
        points = _samples(a)
        # a floor below the maximum leaves it; a floor at or above every
        # bound is the answer, and no distance is computed
        assert _directed_hausdorff(points, b, floor=0.5 * d_ab) == d_ab
        top = float(_vertex_bounds(points, b).max())
        pairs = _counting_distance(mp)
        assert _directed_hausdorff(points, b, floor=top) == top
        assert _directed_hausdorff(points, b, floor=top + 1.0) == top + 1.0
        assert pairs == []


def test_bounds_prune_most_pairs_on_the_bundled_pair(monkeypatch, molecule):
    a, b = _bundled_meshes(molecule)
    pairs = _counting_distance(monkeypatch)
    hausdorff(a, b)
    assert sum(pairs) < 0.6 * _unbounded_pairs(a, b)


def test_bounds_settle_a_translated_sphere_in_two_blocks(monkeypatch):
    # the seed block, the points of largest vertex distance, reaches H = 1 A,
    # and the bounds of nearly every other point stay below it
    a = _sphere_mesh(spacing=0.25)
    b = a.translated(np.array([1.0, 0.0, 0.0]))
    n_points = _samples(a).shape[0] + _samples(b).shape[0]
    per_point = _unbounded_pairs(a, b) / n_points
    pairs = _counting_distance(monkeypatch)
    assert hausdorff(a, b) == _reference_hausdorff(a, b)
    assert sum(pairs) <= 2 * erbfit.distance._HAUSDORFF_BLOCK * per_point


def test_lattice_only_on_triangles_that_can_raise_the_maximum(monkeypatch):
    # H is about 2 A, several edge lengths (the longest is 0.82 A): after the
    # vertices, only the triangles near the two caps that lie farthest from
    # the other sphere can still hold a lattice point above the maximum.  The
    # exact distances are pinned too: a sixteenth of the vertices seeds each
    # direction, and the second starts from the first one's maximum
    a = _sphere_mesh(spacing=0.5)
    b = a.translated(np.array([2.0, 0.3, -0.2]))
    handed = []
    samples = erbfit.distance._triangle_samples

    def counting(mesh, triangles=None):
        handed.append(len(triangles))
        return samples(mesh, triangles)

    monkeypatch.setattr(erbfit.distance, "_triangle_samples", counting)
    pairs = _counting_distance(monkeypatch)
    assert hausdorff(a, b) == _reference_hausdorff(a, b)
    assert a.n_f == b.n_f == 344
    assert handed == [91, 91]
    assert sum(pairs) == 767


def _offset_pairs():
    sphere = _sphere_mesh(spacing=0.3)
    pairs = {f"sphere+{d:g}": (sphere, sphere.translated(np.array([d, 0.0, 0.0])))
             for d in (5.0, 50.0, 1e4)}
    rng = np.random.default_rng(7)
    centers = rng.uniform(-2.5, 2.5, (6, 3))
    radii = rng.uniform(1.0, 2.0, 6)
    box = Box(lo=np.full(3, -8.0), hi=np.full(3, 8.0))
    a, b = (extract_isosurface(GaussianField(centers=c, radii=radii, decay=0.5).values,
                               box, 0.5, 1.0)
            for c in (centers, centers + rng.normal(0.0, 0.3, centers.shape)))
    pairs["pair+1000"] = (a.translated(np.full(3, 1000.0)), b.translated(np.full(3, 1000.0)))
    return pairs


@pytest.mark.parametrize("name", ["sphere+5", "pair+1000"])
def test_hausdorff_splits_runs_longer_than_the_pair_budget(monkeypatch, name):
    # a pair budget of 16: some runs of the cells a point searches are
    # longer (up to 38 items), so _pairs splits them over chunks of fewer
    # than 2 * budget pairs, which together hold the unsplit pairs in their
    # order; the distance is the same to the bit
    a, b = _offset_pairs()[name]
    monkeypatch.setattr(erbfit.distance, "_PAIR_BUDGET", 16)
    split = []
    pairs = erbfit.distance._pairs

    def recording(owner, start, end, order, budget):
        longest = int((end - start).max(initial=0))
        split.append(longest > budget)
        chunks = list(pairs(owner, start, end, order, budget))
        assert all(o.size == t.size < 2 * budget for o, t in chunks)
        # the same pairs, in the same order, as with no run split
        whole = list(pairs(owner, start, end, order, longest + 1))
        for i in (0, 1):
            assert np.array_equal(np.concatenate([c[i] for c in chunks] or [[]]),
                                  np.concatenate([c[i] for c in whole] or [[]]))
        yield from chunks

    monkeypatch.setattr(erbfit.distance, "_pairs", recording)
    assert hausdorff(a, b) == _reference_hausdorff(a, b)
    assert any(split)


@pytest.mark.parametrize("name", ["sphere+5", "sphere+50", "sphere+10000", "pair+1000"])
def test_hausdorff_on_far_and_offset_meshes(name):
    # far apart, every triangle of the other mesh is a candidate of every
    # point, and the cells of one mesh hold none of the other's points; far
    # from the origin, the coordinates round coarsely.  The same value, in
    # bounded time and memory (numpy reports its buffers to tracemalloc)
    a, b = _offset_pairs()[name]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        h = hausdorff(a, b)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == _reference_hausdorff(a, b)
    assert elapsed < 10.0
    assert peak < 32 * 2**20


def _hausdorff_work(monkeypatch, a, b):
    """(H, points given to _CellList.nearest, triangles given lattice points)."""
    work = {"points": 0, "triangles": 0}
    nearest, samples = _CellList.nearest, erbfit.distance._triangle_samples

    def counting_nearest(self, points_t):
        work["points"] += points_t.shape[1]
        return nearest(self, points_t)

    def counting_samples(mesh, triangles=None):
        work["triangles"] += len(triangles)
        return samples(mesh, triangles)

    monkeypatch.setattr(_CellList, "nearest", counting_nearest)
    monkeypatch.setattr(erbfit.distance, "_triangle_samples", counting_samples)
    return hausdorff(a, b), work["points"], work["triangles"]


@settings(derandomize=True, max_examples=10, deadline=None)
@given(n_atoms=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       spacing=st.floats(0.5, 0.8))
def test_edge_keys_choose_and_never_decide(n_atoms, seed, spacing):
    # two fields meshed on one grid: H is the reference's to the bit with the
    # keys, without them, with one mesh's keys from another spacing's grid
    # and with the other's shifted by one, which pairs vertices of
    # neighbouring edges
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.5, 2.5, (n_atoms, 3))
    radii = rng.uniform(1.0, 2.0, n_atoms)
    box = Box(lo=np.full(3, -8.0), hi=np.full(3, 8.0))
    field = GaussianField(centers=centers, radii=radii, decay=0.5)
    moved = GaussianField(centers=centers + rng.normal(0.0, 0.3, centers.shape),
                          radii=radii * rng.uniform(0.9, 1.1, n_atoms),
                          decay=rng.uniform(0.4, 0.6))
    a, b = (extract_isosurface(f.values, box, spacing, 1.0) for f in (field, moved))
    h = _reference_hausdorff(a, b)
    assert hausdorff(a, b) == h
    assert hausdorff(dataclasses.replace(a, edge_keys=None),
                     dataclasses.replace(b, edge_keys=None)) == h
    foreign = extract_isosurface(field.values, box, 1.37 * spacing, 1.0).edge_keys
    assert hausdorff(dataclasses.replace(a, edge_keys=np.resize(foreign, a.vertices.shape[0])),
                     b) == h
    shifted = dataclasses.replace(b, edge_keys=b.edge_keys + 1)
    assert (erbfit.distance._partners(a, shifted)[0] >= 0).any()
    assert hausdorff(a, shifted) == h
    assert hausdorff(shifted, a) == h


@pytest.fixture(scope="module")
def bundled_fit_meshes(tmp_path_factory, run_main, bundled_pqr, molecule):
    """The bundled field's mesh and its 2000/1500 fit's mesh at 0.5 A, as
    erbfit compare meshes them."""
    out = tmp_path_factory.mktemp("fit")
    assert run_main(["sparsify", bundled_pqr, "--out", out, "--max-iter", 2000,
                     "--sparse-iter", 1500]) == (0, [])
    model, _ = load_model(out / "model.json")
    field = GaussianField.from_molecule(molecule, decay=0.5, isovalue=1.0)
    box = bounding_box(molecule)
    return (extract_isosurface(field.values, box, 0.5, 1.0),
            extract_isosurface(model.values, box, 0.5, 1.0))


def test_shared_lattice_leaves_most_triangles_without_lattice_points(monkeypatch,
                                                                     bundled_fit_meshes):
    # with the vertices' bounds alone 4652 of the 4772 triangles get lattice
    # points, with the partner triangles 1022
    a, b = bundled_fit_meshes
    h, _, triangles = _hausdorff_work(monkeypatch, a, b)
    assert h == _reference_hausdorff(a, b)
    assert a.n_f + b.n_f == 4772
    assert triangles < (a.n_f + b.n_f) / 4


def _packed_ball(n_atoms, seed):
    """Centers and radii of n_atoms in a ball of 20 A^3 an atom, at least
    2.2 A apart, radii 1.4-1.9 A: packed like a protein's heavy atoms."""
    rng = np.random.default_rng(seed)
    r = (3.0 * 20.0 * n_atoms / (4.0 * np.pi)) ** (1.0 / 3.0)
    centers = []
    while len(centers) < n_atoms:
        c = rng.uniform(-r, r, 3)
        if c @ c <= r * r and all(((c - p) ** 2).sum() >= 2.2**2 for p in centers):
            centers.append(c)
    return np.array(centers), rng.uniform(1.4, 1.9, n_atoms)


def test_shared_lattice_settles_most_vertices_without_a_search(monkeypatch):
    # a 60-atom ball against its decay-0.45 stand-in: by the vertices' own
    # bounds every one of the 9564 vertices goes to the nearest-vertex search
    # (9726 points with the lattice points), from the partner bounds 568
    # points do, lattice points included; H is the same to the bit
    centers, radii = _packed_ball(60, 0)
    box = Box(lo=centers.min(axis=0) - 4.0, hi=centers.max(axis=0) + 4.0)
    a, b = (extract_isosurface(GaussianField(centers=centers, radii=radii, decay=d).values,
                               box, 0.5, 1.0) for d in (0.5, 0.45))
    n_vertices = a.vertices.shape[0] + b.vertices.shape[0]
    h, points, _ = _hausdorff_work(monkeypatch, a, b)
    assert n_vertices == 9564
    assert points < n_vertices / 8
    assert h == _reference_hausdorff(a, b)


# ---------------------------------------------------------------- comparison


def test_compare_field_with_itself():
    f = _sphere_field()
    ev = lambda pts: f.values(pts)
    box = Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0))
    rep = compare_surfaces(ev, ev, box, 0.25, 1.0)
    assert rep["Error_A"] == 0.0
    assert rep["Error_V"] == 0.0
    assert rep["H"] == pytest.approx(0.0, abs=1e-12)
    assert rep["A_original"] == rep["A_our"]
    assert rep["V_original"] == rep["V_our"]


def test_compare_inflated_sphere():
    # isolated atom: the level set is a sphere of exactly the atom radius,
    # so a 1 percent radius bump scales area by 1.01^2 and volume by 1.01^3
    f1 = _sphere_field()
    f2 = GaussianField(centers=np.zeros((1, 3)),
                       radii=np.array([SPHERE_R * 1.01]), decay=0.5)
    box = Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0))
    rep = compare_surfaces(lambda p: f1.values(p), lambda p: f2.values(p),
                           box, 0.15, 1.0)
    assert rep["Error_A"] == pytest.approx(1.01**2 - 1.0, abs=0.005)
    assert rep["Error_V"] == pytest.approx(1.01**3 - 1.0, abs=0.007)
    assert rep["H"] == pytest.approx(0.015, abs=0.007)
    assert rep["A_original"] == pytest.approx(SPHERE_AREA, rel=0.01)
    assert rep["V_original"] == pytest.approx(SPHERE_VOLUME, rel=0.01)


# ---------------------------------------------------------------- export


def test_write_obj_roundtrip(tmp_path):
    m = _unit_cube_mesh()
    path = tmp_path / "mesh.obj"
    write_obj(m, path, header_lines=["cube"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# cube"
    vs = [ln for ln in lines if ln.startswith("v ")]
    fs = [ln for ln in lines if ln.startswith("f ")]
    assert len(vs) == 8 and len(fs) == 12
    verts = np.array([[float(p) for p in ln.split()[1:]] for ln in vs])
    faces = np.array([[int(p) for p in ln.split()[1:]] for ln in fs])
    assert np.array_equal(verts, m.vertices)
    assert np.array_equal(faces - 1, m.triangles)  # OBJ indices are 1-based
