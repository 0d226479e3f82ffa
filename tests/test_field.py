"""Gaussian molecular field evaluation against brute-force oracles."""

import re
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from erbfit.field import (
    GRID_TAU,
    Box,
    GaussianField,
    GridSpec,
    bounding_box,
    eval_phi_batch,
)
from erbfit.pqr import parse_pqr
from erbfit.sampler import make_grid


def _single_atom(r=1.7, d=0.5, c=1.0, center=(0.0, 0.0, 0.0)):
    return GaussianField(centers=np.array([center], dtype=float),
                         radii=np.array([r]), decay=d, isovalue=c)


def _loop_phi(field, point):
    # independent scalar-loop evaluation of the kernel sum
    total = 0.0
    for x_i, r_i in zip(field.centers, field.radii):
        diff = np.asarray(point, dtype=float) - x_i
        total += np.exp(-field.decay * (diff @ diff - r_i * r_i))
    return total


def _reference_field(field, points, chunk=65536):
    # independent reference: the pairwise (points x atoms x 3) einsum, in chunks
    out = np.empty(points.shape[0])
    r2 = field.radii**2
    for start in range(0, points.shape[0], chunk):
        diff = points[start:start + chunk, None, :] - field.centers[None, :, :]
        sq = np.einsum("mij,mij->mi", diff, diff)
        out[start:start + chunk] = np.exp(-field.decay * (sq - r2[None, :])).sum(axis=1)
    return out


def test_value_at_atom_center():
    f = _single_atom(r=1.7, d=0.5)
    assert f.values(np.zeros(3)[None])[0] == pytest.approx(np.exp(0.5 * 1.7**2), rel=1e-15)


def test_on_sphere_value_is_exactly_isovalue():
    f = _single_atom(r=1.7, d=0.5)
    # d = 0.5 scales exactly, so (-d r) r and d r^2 are both half of r r as
    # rounded, and the exponent ((-d r) r + d r^2) + ... is 0 exactly
    assert f.values(np.array([1.7, 0.0, 0.0])[None])[0] == 1.0


def test_two_symmetric_atoms_sum():
    sep = 2.4
    f2 = GaussianField(centers=np.array([[-sep / 2, 0, 0], [sep / 2, 0, 0]]),
                       radii=np.array([1.5, 1.5]), decay=0.5)
    f1 = _single_atom(r=1.5, d=0.5, center=(sep / 2, 0, 0))
    at_origin = f2.values(np.zeros(3)[None])[0]
    assert at_origin == pytest.approx(2.0 * f1.values(np.zeros(3)[None])[0], rel=1e-14)


def test_batch_empty():
    f = _single_atom()
    out = eval_phi_batch(f, np.zeros((0, 3)))
    assert out.shape == (0,)


def test_batch_single_point():
    f = _single_atom()
    p = np.array([0.3, -0.2, 1.1])
    assert eval_phi_batch(f, p[None, :])[0] == f.values(p[None])[0]


def test_batch_matches_loop_oracle(rng, molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5)
    pts = rng.uniform(-8, 12, (1000, 3))
    batch = eval_phi_batch(f, pts)
    looped = np.array([_loop_phi(f, p) for p in pts])
    assert np.max(np.abs(batch - looped)) < 1e-12 * max(1.0, looped.max())


def test_batch_chunking_consistent(rng):
    # a point's value does not depend on the size of the batch it is in
    f = _single_atom()
    pts = rng.uniform(-5, 5, (70000, 3))
    vals = eval_phi_batch(f, pts)
    assert np.array_equal(vals[:100], eval_phi_batch(f, pts[:100]))


def test_additivity(rng, molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5)
    pts = rng.uniform(-5, 15, (50, 3))
    total = np.zeros(50)
    for a in molecule.atoms:
        single = GaussianField(centers=a.center[None, :],
                               radii=np.array([a.radius]), decay=0.5)
        total += eval_phi_batch(single, pts)
    assert np.allclose(eval_phi_batch(f, pts), total, rtol=1e-13, atol=0)


def test_positive_and_decaying(rng):
    f = _single_atom()
    # stay within the range where the kernel does not underflow to 0.0
    pts = rng.uniform(-15, 15, (200, 3))
    vals = eval_phi_batch(f, pts)
    assert (vals > 0).all()
    far = f.values(np.array([1e3, 0.0, 0.0])[None])[0]
    assert far == 0.0  # underflows; mathematically positive but tiny


def test_level_set_radius_property(rng):
    # phi = c exactly on the sphere of radius sqrt(r^2 - ln(c)/d)
    for _ in range(10):
        r = rng.uniform(1.0, 2.0)
        d = rng.uniform(0.3, 0.8)
        c = rng.uniform(0.5, 2.0)
        f = _single_atom(r=r, d=d, c=c)
        rho = np.sqrt(r * r - np.log(c) / d)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        assert f.values((rho * u)[None])[0] == pytest.approx(c, rel=1e-12)


def test_matches_reference_on_bundled_grid(molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5)
    pts = make_grid(bounding_box(molecule), 1.0).points()
    ref = _reference_field(f, pts)
    assert np.max(np.abs(f.values(pts) - ref) / ref) < 1e-12


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n_atoms=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       decay=st.floats(0.3, 0.8))
def test_matches_reference_on_random_atoms(n_atoms, seed, decay):
    rng = np.random.default_rng(seed)
    f = GaussianField(centers=rng.uniform(-6, 6, (n_atoms, 3)),
                      radii=rng.uniform(1.0, 2.0, n_atoms), decay=decay)
    # points near the atoms and far outside them, where the terms are tiny
    near = f.centers[rng.integers(0, n_atoms, 200)] + rng.normal(0, 1.5, (200, 3))
    far = rng.uniform(-25, 25, (100, 3))
    pts = np.vstack([near, far])
    ref = _reference_field(f, pts)
    assert np.all(np.abs(f.values(pts) - ref) <= 1e-12 * ref)


def test_values_allocate_no_points_by_atoms_temporary(rng):
    n_atoms, m = 200, 20_000
    f = GaussianField(centers=rng.uniform(-10, 10, (n_atoms, 3)),
                      radii=rng.uniform(1.4, 1.9, n_atoms), decay=0.5)
    pts = rng.uniform(-12, 12, (m, 3))
    tracemalloc.start()
    try:
        f.values(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * m * 8  # bytes; an (M, N) array alone would be 200 * M doubles


def test_field_validation():
    with pytest.raises(ValueError):
        _single_atom(d=0.0)
    with pytest.raises(ValueError):
        _single_atom(c=-1.0)


@pytest.mark.parametrize("centers, radii, shapes", [
    # 4 radii for 5 centers would evaluate 4 atoms: 4 e^0.5 at the origin
    (np.zeros((5, 3)), np.ones(4), "(5, 3) and (4,)"),
    (np.zeros((3, 2)), np.ones(3), "(3, 2) and (3,)"),
])
def test_field_refuses_atom_arrays_that_disagree(centers, radii, shapes):
    with pytest.raises(ValueError, match=re.escape(f"(N, 3) centers and (N,) radii, "
                                                   f"got shapes {shapes}")):
        GaussianField(centers=centers, radii=radii, decay=0.5)


@pytest.mark.parametrize("kwargs, reason", [
    ({"d": np.nan}, "decay must be finite and positive, got nan"),
    ({"d": np.inf}, "decay must be finite and positive, got inf"),
    ({"c": np.nan}, "isovalue must be finite and positive, got nan"),
    ({"c": np.inf}, "isovalue must be finite and positive, got inf"),
    # d r^2 = 800 is beyond the largest exponent of a finite double (709.78)
    ({"r": 40.0}, "atom 1: the weight e^(d r^2) overflows at decay 0.5 and radius 40.0"),
    ({"d": 1e308, "r": 2.0}, "overflows at decay 1e+308"),
    ({"r": np.nan}, "atom 1: radius must be finite and non-negative, got nan"),
    ({"r": np.inf}, "atom 1: radius must be finite and non-negative, got inf"),
    ({"r": -1.0}, "atom 1: radius must be finite and non-negative, got -1.0"),
])
def test_field_refuses_non_finite_numbers(kwargs, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        _single_atom(**kwargs)


# ---------------------------------------------------------------- grid path


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_atoms=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       decay=st.floats(0.3, 0.8), spacing=st.floats(0.3, 1.0))
def test_grid_values_match_point_values(n_atoms, seed, decay, spacing):
    # atoms inside the box and outside it, some far enough that their block
    # misses the grid altogether
    rng = np.random.default_rng(seed)
    f = GaussianField(centers=rng.uniform(-14, 14, (n_atoms, 3)),
                      radii=rng.uniform(1.0, 2.0, n_atoms), decay=decay)
    grid = make_grid(Box(lo=rng.uniform(-7, -3, 3), hi=rng.uniform(3, 7, 3)), spacing)
    points = grid.points()
    ref = f.values(points)
    got = f.values(grid)
    assert got.shape == (len(grid),)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(ref, 1.0))
    assert np.all(np.abs(got - _reference_field(f, points)) <= 1e-12 * np.maximum(ref, 1.0))


@pytest.mark.parametrize("decay, center", [(0.5, (0.0, 0.0, 0.0)),
                                           (0.45, (0.1, -0.23, 0.37)),
                                           (0.37, (0.1, -0.23, 0.37))],
                         ids=["lattice", "off-lattice-0.45", "off-lattice-0.37"])
def test_grid_values_are_the_point_bits_when_nothing_is_dropped(decay, center):
    # one atom whose block holds the whole grid: every node gets the terms of
    # the point path, as exp(plane) * exp(z part) in place of the exp of
    # their sum, so a node is within rounding of the point path's value.  At
    # d = 0.5 about the origin every product on the 0.25 A lattice is exact,
    # so only the other cases, off the lattice, see the order of the rounding
    f = _single_atom(r=1.5, d=decay, center=center)
    grid = make_grid(Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0)), 0.25)
    got, ref = f.values(grid), f.values(grid.points())
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)


def test_grid_values_keep_the_below_isovalue_bits_on_bundled_grid(molecule):
    f = GaussianField.from_molecule(molecule, decay=0.5)
    grid = make_grid(bounding_box(molecule), 0.5)
    got, ref = f.values(grid), f.values(grid.points())
    assert np.array_equal(got < f.isovalue, ref < f.isovalue)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_grid_values_leave_out_less_than_tau():
    # every node lies 12 A or more from a lone atom, where its term is
    # positive but below GRID_TAU, so the grid path drops it
    f = _single_atom(r=1.5, d=0.5)
    grid = GridSpec(Box(lo=np.array([12.0, 0.0, 0.0]), hi=np.array([16.0, 2.0, 2.0])),
                    (2, 2, 2))
    ref = _reference_field(f, grid.points())
    assert 0.0 < ref.max() < GRID_TAU
    assert np.array_equal(f.values(grid), np.zeros(len(grid)))


def test_block_sum_clips_blocks_to_the_grid():
    grid = GridSpec(Box(lo=np.zeros(3), hi=np.full(3, 4.0)), (4, 4, 4))
    centers = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [9.0, 2.0, 2.0], [0.5, 3.5, 2.0]])
    half = np.array([[1.0, 0.5, 0.0], [np.inf, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    # center 1 spans x (infinite half-width), center 2 reaches no node, and
    # center 3 is clipped below on x and above on y
    blocks = [np.s_[1:4, 2:3, 2:3], np.s_[0:5, 1:4, 1:4], None, np.s_[0:2, 3:5, 1:4]]
    for k, block in enumerate(blocks):
        # a zero row and log-weight 0: exp(0) = 1 at every node of the block
        got = grid.block_sum(centers[k:k + 1], half[k:k + 1], np.zeros(1), np.zeros((1, 6)))
        want = np.zeros(grid.shape)
        if block is not None:
            want[block] = 1.0
        assert np.array_equal(got.reshape(grid.shape), want)
    # the offsets of center 3's nodes from it, read back through each column
    # of the row: a 1 in column j alone, log-weight 0.25, gives exp(m_j + 0.25)
    # for monomial m_j, every sum exact, in both the z-coupled case and not;
    # a row free of z coupling takes z^2 as its own factor, exp(0.25) exp(z^2)
    x, y, z = np.meshgrid([-0.5, 0.5], [-0.5, 0.5], [-1.0, 0.0, 1.0], indexing="ij")
    for j, monomial in enumerate([x * x, y * y, z * z, x * y, x * z, y * z]):
        row = np.zeros((1, 6))
        row[0, j] = 1.0
        got = grid.block_sum(centers[3:], half[3:], np.full(1, 0.25), row).reshape(grid.shape)
        want = np.exp(0.25) * np.exp(monomial) if j == 2 else np.exp(monomial + 0.25)
        assert np.array_equal(got[blocks[3]], want)
        assert np.count_nonzero(got) == monomial.size
    assert len(grid) == grid.n_points == 125


def _reference_block_sum(grid, centers, half_widths, log_weights, neg_q, out=None):
    """The per-kernel block loop, the reference of GridSpec.block_sum: each
    kernel's exp(log_weight - E) over its block, one exponential per node,
    added in row order to out (zeros by default); C-order node values."""
    axes = [grid.axis_coords(p) for p in range(3)]
    out = np.zeros(grid.shape) if out is None else out.reshape(grid.shape).copy()
    for k in range(centers.shape[0]):
        block = tuple(slice(np.searchsorted(a, c - h, side="left"),
                            np.searchsorted(a, c + h, side="right"))
                      for a, c, h in zip(axes, centers[k], half_widths[k]))
        x, y, z = (axes[p][block[p]] - c for p, c in enumerate(centers[k].tolist()))
        if 0 in (x.size, y.size, z.size):
            continue
        q_xx, q_yy, q_zz, q_xy, q_xz, q_yz = neg_q[k].tolist()
        plane = np.add.outer(q_xx * x * x + log_weights[k], q_yy * y * y)
        plane += np.multiply.outer(q_xy * x, y)
        if q_xz == 0.0 and q_yz == 0.0:
            g = plane[:, :, None] + q_zz * z * z
        else:
            g = np.multiply(np.add.outer(q_xz * x, q_yz * y)[:, :, None], z)
            g += plane[:, :, None]
            g += q_zz * z * z
        out[block] += np.exp(g)
    return out.ravel()


@pytest.mark.parametrize("seed", range(12))
def test_factored_rows_match_the_block_loop(seed):
    # random rows over a grid that clips many blocks and misses some: rows
    # free of z coupling, with and without an x y term, some with infinite
    # half-widths, are summed by the factored path within rounding of the
    # block loop and with its zeros; z-coupled rows keep its bits, alone and
    # added after the factored rows
    rng = np.random.default_rng(seed)
    grid = GridSpec(Box(lo=rng.uniform(-5, -3, 3), hi=rng.uniform(3, 5, 3)),
                    tuple(rng.integers(6, 15, 3)))
    n = 16
    centers = rng.uniform(-7, 7, (n, 3))
    half = rng.uniform(0.5, 6.0, (n, 3))
    half[rng.random((n, 3)) < 0.15] = np.inf
    log_weights = rng.uniform(-2, 2, n)
    neg_q = np.zeros((n, 6))
    neg_q[:, :3] = -rng.uniform(0.05, 0.5, (n, 3))
    neg_q[::2, 3] = rng.uniform(-0.5, 0.5, n // 2) * np.sqrt(neg_q[::2, 0] * neg_q[::2, 1])
    coupled = rng.random(n) < 0.4
    coupled[:2] = True, False
    neg_q[coupled, 4:] = rng.uniform(-0.1, 0.1, (coupled.sum(), 2))
    free = ~coupled

    got = grid.block_sum(centers[free], half[free], log_weights[free], neg_q[free])
    want = _reference_block_sum(grid, centers[free], half[free], log_weights[free], neg_q[free])
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(want, 1.0))
    assert np.array_equal(got == 0.0, want == 0.0)
    rows = (centers[coupled], half[coupled], log_weights[coupled], neg_q[coupled])
    assert np.array_equal(grid.block_sum(*rows), _reference_block_sum(grid, *rows))
    mixed = grid.block_sum(centers, half, log_weights, neg_q)
    assert np.array_equal(mixed, _reference_block_sum(grid, *rows, out=got))


def test_bounding_box_single_atom():
    # padding: the radius 1.5 + 3 A
    mol = parse_pqr("ATOM 1 C ALA 1 0.0 0.0 0.0 0.0 1.5")
    box = bounding_box(mol)
    assert np.allclose(box.lo, -6.0)
    assert np.allclose(box.hi, 6.0)


def test_bounding_box_two_atoms():
    # the spheres span x in [-1, 11]; padding: the largest radius 1.0 + 3 A
    mol = parse_pqr(
        "ATOM 1 C ALA 1 0.0 0.0 0.0 0.0 1.0\n"
        "ATOM 2 C ALA 1 10.0 0.0 0.0 0.0 1.0\n")
    box = bounding_box(mol)
    assert box.lo[0] == -5.0
    assert box.hi[0] == 15.0


def test_bounding_box_contains_inflated_atoms(rng, molecule):
    box = bounding_box(molecule)
    for a in molecule.atoms:
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            p = a.center + a.radius * u
            assert np.all((box.lo <= p) & (p <= box.hi))


def test_box_validation():
    with pytest.raises(ValueError):
        Box(lo=np.array([0.0, 0.0, 0.0]), hi=np.array([1.0, -1.0, 1.0]))
