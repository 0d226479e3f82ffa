"""Iso-surface extraction, area/volume, Hausdorff distance, surface comparison."""

import numpy as np
import pytest

from erbfit.field import Box, GaussianField
from erbfit.mesh import (
    EmptyMeshError,
    TriMesh,
    compare_surfaces,
    extract_isosurface,
    hausdorff,
    mesh_area,
    mesh_volume,
    write_obj,
)

SPHERE_R = 1.5
SPHERE_AREA = 4.0 * np.pi * SPHERE_R**2       # 28.2743...
SPHERE_VOLUME = 4.0 / 3.0 * np.pi * SPHERE_R**3  # 14.1372...


def _sphere_field():
    return GaussianField(centers=np.zeros((1, 3)), radii=np.array([SPHERE_R]), decay=0.5)


def _sphere_mesh(spacing=0.2):
    f = _sphere_field()
    box = Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0))
    return extract_isosurface(lambda pts: f.values(pts), box, spacing, 1.0)


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


# ---------------------------------------------------------------- TriMesh


def test_trimesh_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        TriMesh(vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 3]]))


def test_trimesh_rejects_degenerate_triangle():
    with pytest.raises(ValueError):
        TriMesh(vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 1]]))


def test_translated_moves_vertices_only():
    m = _unit_cube_mesh()
    shifted = m.translated(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(shifted.vertices, m.vertices + [1.0, 2.0, 3.0])
    assert np.array_equal(shifted.triangles, m.triangles)


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
    from erbfit.model import rotation_matrix
    m = _sphere_mesh(spacing=0.3)
    rot = rotation_matrix(0.3, -1.1, 2.0)
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
