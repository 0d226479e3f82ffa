"""Grid construction and near-surface constraint selection."""

import tracemalloc

import numpy as np
import pytest

import erbfit.sampler
from erbfit.field import GRID_TAU, Box, GaussianField, bounding_box, coordinate_major
from erbfit.model import _PointBlocks
from erbfit.sampler import (
    MAX_GRID_POINTS,
    ConstraintSet,
    GridSpec,
    SamplingError,
    make_grid,
    select_constraints,
)


def _box(lo, hi):
    return Box(lo=np.asarray(lo, dtype=float), hi=np.asarray(hi, dtype=float))


def _single_atom_field(r=1.5, d=0.5):
    return GaussianField(centers=np.zeros((1, 3)), radii=np.array([r]), decay=d)


def test_counts_from_spacing():
    g = make_grid(_box([0, 0, 0], [1, 1, 1]), spacing=0.5)
    assert g.counts == (2, 2, 2)


def test_counts_clamped_to_two():
    g = make_grid(_box([0, 0, 0], [10, 1, 1]), spacing=1.0)
    assert g.counts == (10, 2, 2)


def test_degenerate_box_rejected():
    with pytest.raises(SamplingError):
        make_grid(_box([0, 0, 0], [1, 0, 1]), spacing=0.5)


def test_nonpositive_spacing_rejected():
    with pytest.raises(SamplingError):
        make_grid(_box([0, 0, 0], [1, 1, 1]), spacing=0.0)


@pytest.mark.parametrize("spacing", [float("nan"), float("inf")])
def test_non_finite_spacing_rejected(spacing):
    with pytest.raises(SamplingError, match="finite and positive"):
        make_grid(_box([0, 0, 0], [1, 1, 1]), spacing=spacing)


def test_grid_point_budget():
    # (1023 + 1) * (1023 + 1) * (31 + 1) points is exactly the budget; one more
    # interval on the first axis is over it.  make_grid allocates no points.
    assert MAX_GRID_POINTS == 2**25
    g = make_grid(_box([0, 0, 0], [1023, 1023, 31]), spacing=1.0)
    assert g.counts == (1023, 1023, 31) and g.n_points == MAX_GRID_POINTS
    with pytest.raises(SamplingError, match="coarser spacing"):
        make_grid(_box([0, 0, 0], [1024, 1023, 31]), spacing=1.0)
    # a spacing so small that the count overflows to inf is refused as well
    with pytest.raises(SamplingError, match="coarser spacing"):
        make_grid(_box([0, 0, 0], [20, 20, 20]), spacing=1e-310)


def test_grid_point_formula(rng):
    box = _box([-2.0, 1.0, 0.5], [3.0, 4.0, 9.5])
    g = make_grid(box, spacing=0.7)
    pts = g.points()
    nx, ny, nz = g.counts
    assert pts.shape == ((nx + 1) * (ny + 1) * (nz + 1), 3)
    def coord(axis, idx, n):
        if idx == n:
            return box.hi[axis]
        return box.lo[axis] + idx * ((box.hi[axis] - box.lo[axis]) / n)

    for _ in range(20):
        i = int(rng.integers(0, nx + 1))
        j = int(rng.integers(0, ny + 1))
        k = int(rng.integers(0, nz + 1))
        flat = i * (ny + 1) * (nz + 1) + j * (nz + 1) + k
        expected = np.array([coord(0, i, nx), coord(1, j, ny), coord(2, k, nz)])
        assert np.array_equal(pts[flat], expected)


def test_grid_includes_both_corners():
    g = make_grid(_box([0, 0, 0], [2, 2, 2]), spacing=1.0)
    pts = g.points()
    assert np.array_equal(pts[0], np.zeros(3))
    assert np.array_equal(pts[-1], np.full(3, 2.0))


def test_masked_nodes_are_the_masked_rows_of_every_node(rng):
    # one builder for every node array: a mask keeps the same bits as the
    # rows of the full array, in a (3, K) array that the point gate takes
    # without a copy
    g = make_grid(_box([-2.0, 1.0, 0.5], [3.0, 4.0, 9.5]), spacing=0.7)
    mask = rng.random(g.shape) < 0.3
    kept = g.points(mask)
    assert kept.shape == (np.count_nonzero(mask), 3)
    assert np.array_equal(kept, g.points()[mask.ravel()])
    assert kept.T.flags.c_contiguous and kept.base.shape == (3, len(kept))
    assert np.shares_memory(coordinate_major(kept), kept)


def test_gridspec_rejects_small_counts():
    with pytest.raises(SamplingError):
        GridSpec(box=_box([0, 0, 0], [1, 1, 1]), counts=(1, 2, 2))


def test_selection_satisfies_band():
    f = _single_atom_field()
    g = make_grid(_box([-4, -4, -4], [4, 4, 4]), spacing=0.8)
    cs = select_constraints(f, g, band=1.0)
    assert len(cs) >= 1
    assert np.all(np.abs(cs.targets - 1.0) <= 1.0)


def test_huge_band_selects_all():
    f = _single_atom_field()
    g = make_grid(_box([-4, -4, -4], [4, 4, 4]), spacing=1.0)
    cs = select_constraints(f, g, band=1e9)
    assert len(cs) == g.n_points


def test_selection_equals_brute_force(molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5)
    g = make_grid(bounding_box(molecule), spacing=1.3)
    cs = select_constraints(f, g, band=0.7)
    # independent filter: loop over all grid points in order
    kept_points, kept_phi = [], []
    for p in g.points():
        phi = f.values(p[None])[0]
        if abs(phi - 1.0) <= 0.7:
            kept_points.append(p)
            kept_phi.append(phi)
    assert np.array_equal(cs.points, np.array(kept_points))
    # the grid sum is within rounding of the point path at a node
    kept_phi = np.array(kept_phi)
    assert np.all(np.abs(cs.targets - kept_phi) <= 1e-14 * np.maximum(kept_phi, 1.0))


def test_band_monotonicity(molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5)
    g = make_grid(bounding_box(molecule), spacing=1.5)
    small = select_constraints(f, g, band=0.4)
    large = select_constraints(f, g, band=1.0)
    small_set = {tuple(p) for p in small.points}
    large_set = {tuple(p) for p in large.points}
    assert small_set <= large_set


def test_selection_deterministic(molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5)
    g = make_grid(bounding_box(molecule), spacing=1.1)
    a = select_constraints(f, g, band=1.0)
    b = select_constraints(f, g, band=1.0)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.targets, b.targets)


def test_selected_points_inside_box(molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5)
    box = bounding_box(molecule)
    cs = select_constraints(f, make_grid(box, 1.0), band=1.0)
    assert np.all((box.lo <= cs.points) & (cs.points <= box.hi))


def test_selected_points_are_a_view_of_coordinate_major_points(molecule):
    # the model's passes take the points (3, M), so they copy nothing
    f = GaussianField.from_molecule(molecule, decay=0.5)
    cs = select_constraints(f, make_grid(bounding_box(molecule), 1.0), band=1.0)
    assert np.shares_memory(np.ascontiguousarray(cs.points.T), cs.points)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constraint_set_refuses_non_finite_points(bad):
    # a nan point used to reach the fit, which met it only as a non-finite objective
    with pytest.raises(ValueError, match="coordinates must be finite"):
        ConstraintSet(points=[[0.0, 0.0, 0.0], [bad, 0.0, 0.0]], targets=[1.0, 0.5])


@pytest.mark.parametrize("layout", ["list", "C", "F"])
def test_constraint_points_are_a_view_of_the_pass_layout(layout):
    # whatever the input's layout, the points are the transpose of the gate's
    # (3, M) array, which a pass over them reads without a copy
    pts = np.arange(30.0).reshape(10, 3)
    given = pts.tolist() if layout == "list" else np.asarray(pts, order=layout)
    cs = ConstraintSet(points=given, targets=np.zeros(10))
    assert np.array_equal(cs.points, pts)
    assert cs.points.T.flags.c_contiguous
    assert np.shares_memory(_PointBlocks(cs.points, 4).points_t, cs.points)


def test_empty_selection_reports_remedy():
    f = _single_atom_field()
    g = make_grid(_box([-6, -6, -6], [6, 6, 6]), spacing=6.0)
    with pytest.raises(SamplingError, match="finer grid|larger band"):
        select_constraints(f, g, band=1e-9)


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        ConstraintSet(points=np.zeros((0, 3)), targets=np.zeros(0))
    with pytest.raises(ValueError):
        ConstraintSet(points=np.zeros((2, 3)), targets=np.zeros(3))
    # a coordinate-major (3, K) array is not read as scrambled (K, 3) rows
    with pytest.raises(ValueError, match=r"expected \(M, 3\) points, got shape \(3, 4\)"):
        ConstraintSet(points=np.arange(12.0).reshape(3, 4), targets=np.zeros(4))


def _spread_field(n_atoms=60, extent=40.0, seed=7):
    """Atoms scattered over a cube of `extent` A: an atom's block (about 8.4 A
    each way at decay 0.5) misses most of the grid."""
    rng = np.random.default_rng(seed)
    return GaussianField(centers=rng.uniform(0.0, extent, (n_atoms, 3)),
                         radii=rng.uniform(1.4, 1.9, n_atoms), decay=0.5)


@pytest.mark.parametrize("band", [1.0, 0.5])
def test_grid_cutoff_moves_targets_not_the_selection(band):
    # selection sums each atom over the nodes it can reach; against the
    # exact sum at every node the targets move by less than GRID_TAU and
    # the selected nodes stay the same
    f = _spread_field()
    g = make_grid(Box(lo=f.centers.min(axis=0) - 5.0, hi=f.centers.max(axis=0) + 5.0), 1.2)
    cs = select_constraints(f, g, band=band)
    points = g.points()
    exact = f.values(points)
    kept = np.abs(exact - 1.0) <= band
    assert np.array_equal(cs.points, points[kept])
    assert np.any(cs.targets != exact[kept])
    assert np.abs(cs.targets - exact[kept]).max() < GRID_TAU


def test_selection_evaluates_the_field_once_on_the_grid(molecule, monkeypatch):
    # the benchmark times selection's field pass by replacing this module
    # global, so selection calls it, once, on the grid
    calls = []
    eval_phi_batch = erbfit.sampler.eval_phi_batch

    def recording(field, where):
        calls.append(where)
        return eval_phi_batch(field, where)

    monkeypatch.setattr(erbfit.sampler, "eval_phi_batch", recording)
    f = GaussianField.from_molecule(molecule, decay=0.5)
    g = make_grid(bounding_box(molecule), 1.0)
    select_constraints(f, g, band=1.0)
    assert len(calls) == 1 and calls[0] is g


def test_selection_memory_per_grid_node():
    # the exact point path holds the (n_points, 3) nodes and its (3, n_points)
    # squares beside the values, about 11 doubles per node; the grid path
    # holds the values, the mask and then the kept nodes alone
    rng = np.random.default_rng(3)
    direction = rng.normal(size=(200, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    centers = direction * 9.0 * rng.uniform(0.0, 1.0, (200, 1)) ** (1 / 3)
    f = GaussianField(centers=centers, radii=rng.uniform(1.4, 1.9, 200), decay=0.5)
    g = make_grid(Box(lo=centers.min(axis=0) - 5.0, hi=centers.max(axis=0) + 5.0), 1.0)
    tracemalloc.start()
    try:
        cs = select_constraints(f, g, band=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cs) > 0.8 * g.n_points
    assert peak < 7 * 8 * g.n_points
