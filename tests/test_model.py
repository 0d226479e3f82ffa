"""Ellipsoid RBF model: rotations, evaluation, packing, gradient, persistence.

The gradient is checked against central finite differences of an
independently written objective; rotations are checked against explicit
single-axis matrices composed in the test.
"""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import erbfit.model
import erbfit.optimizer
from erbfit.field import GRID_TAU, Box, GaussianField, GridSpec, bounding_box
from erbfit.initializer import init_model
from erbfit.model import (
    RbfModel,
    eval_model_gradient,
    load_model,
    pack_parameters,
    reach,
    reach_boxes,
    rotations,
    save_model,
    unpack_parameters,
)
from erbfit.optimizer import OptimizerConfig, optimize
from erbfit.sampler import ConstraintSet, make_grid, select_constraints


def _axis_rotations(alpha, beta, gamma):
    """The printed single-axis matrices Rx, Ry, Rz and their derivatives."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]], dtype=float)
    ry = np.array([[cb, 0, -sb], [0, 1, 0], [sb, 0, cb]], dtype=float)
    rz = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]], dtype=float)
    drx = np.array([[0, 0, 0], [0, -sa, -ca], [0, ca, -sa]], dtype=float)
    dry = np.array([[-sb, 0, -cb], [0, 0, 0], [cb, 0, -sb]], dtype=float)
    drz = np.array([[-sg, -cg, 0], [cg, -sg, 0], [0, 0, 0]], dtype=float)
    return (rx, ry, rz), (drx, dry, drz)


def _reference_rotation(alpha, beta, gamma):
    """Independent composition from the printed single-axis matrices."""
    (rx, ry, rz), _ = _axis_rotations(alpha, beta, gamma)
    return rz @ ry @ rx


def _reference_rotation_derivatives(alpha, beta, gamma):
    """(dR/dalpha, dR/dbeta, dR/dgamma) by the product rule on the single-axis matrices."""
    (rx, ry, rz), (drx, dry, drz) = _axis_rotations(alpha, beta, gamma)
    return rz @ ry @ drx, rz @ dry @ rx, drz @ ry @ rx


def _rotation(alpha, beta, gamma):
    """The package's R for one set of angles."""
    return rotations(np.array([[alpha, beta, gamma]]))[0][0]


def _random_model(rng, n):
    return RbfModel(
        coeff_sqrt=rng.uniform(0.2, 2.0, n),
        decay_sqrt=rng.uniform(0.3, 1.2, (n, 3)),
        centers=rng.uniform(-3, 3, (n, 3)),
        angles=rng.uniform(-np.pi, np.pi, (n, 3)),
    )


def test_rotation_identity_at_zero():
    assert np.array_equal(_rotation(0.0, 0.0, 0.0), np.eye(3))


def test_rotation_x_quarter_turn():
    r = _rotation(np.pi / 2, 0.0, 0.0)
    expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.allclose(r, expected, atol=1e-15)


def test_rotation_y_sign_convention():
    # the y-rotation here carries -sin(beta) in the first row, third column
    r = _rotation(0.0, np.pi / 2, 0.0)
    assert r[0, 2] == pytest.approx(-1.0, abs=1e-15)
    assert r[2, 0] == pytest.approx(1.0, abs=1e-15)


def test_rotation_orthogonality(rng):
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, (50, 3))
    rs, drs = rotations(angles)
    assert rs.shape == (50, 3, 3) and drs.shape == (3, 50, 3, 3)
    for r, ang, dr in zip(rs, angles, np.swapaxes(drs, 0, 1)):
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r, _reference_rotation(*ang), atol=1e-14)
        assert np.allclose(dr, _reference_rotation_derivatives(*ang), atol=1e-14)


def test_rotation_derivatives_match_finite_differences(rng):
    h = 1e-6
    angles = rng.uniform(-np.pi, np.pi, (20, 3))
    analytic = rotations(angles)[1]
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        fd = (rotations(angles + step)[0] - rotations(angles - step)[0]) / (2 * h)
        assert np.allclose(analytic[axis], fd, atol=1e-8)


def _one_basis(coeff_sqrt, decay_sqrt, center, angles):
    return RbfModel(coeff_sqrt=[coeff_sqrt], decay_sqrt=decay_sqrt, centers=center,
                    angles=angles)


def _value_at(model, point):
    return model.values(np.asarray(point, dtype=float)[None])[0]


def _reference_values(params, points):
    """Independent reference: the point-major (M, 3) value loop over the rows of a table."""
    c, d, centers, ang = params[:, 0], params[:, 1:4], params[:, 4:7], params[:, 7:10]
    out = np.zeros(points.shape[0])
    for i in range(c.shape[0]):
        r = _reference_rotation(*ang[i])
        u = (points - centers[i]) @ r.T
        out += c[i] ** 2 * np.exp(-(u**2) @ (d[i] ** 2))
    return out


def test_basis_value_at_center(rng):
    center = np.array([1.0, -2.0, 0.5])
    b = _one_basis(1.3, [0.5, 0.9, 0.7], center, [0.3, -0.1, 2.0])
    assert _value_at(b, center) == pytest.approx(1.3**2, rel=1e-15)
    assert _value_at(b, center) == 1.3**2  # the exponent is exactly 0 there


def test_basis_isotropic_rotation_invariance(rng):
    d = np.sqrt(0.5)
    for _ in range(10):
        b = _one_basis(0.8, [d, d, d], np.zeros(3), rng.uniform(-np.pi, np.pi, 3))
        p = rng.uniform(-2, 2, 3)
        iso = 0.8**2 * np.exp(-0.5 * (p @ p))
        assert _value_at(b, p) == pytest.approx(iso, rel=1e-12)


def test_basis_zero_coefficient():
    b = _one_basis(0.0, np.ones(3), np.zeros(3), np.zeros(3))
    assert _value_at(b, [0.3, 0.1, -0.5]) == 0.0


def test_basis_level_set_along_principal_axis(rng):
    # along the rotated first axis the basis is a 1-D Gaussian in the
    # axis coordinate
    center = np.array([0.5, 0.5, 0.5])
    b = _one_basis(1.1, [0.9, 0.4, 0.6], center, [0.7, -0.4, 0.2])
    r = _reference_rotation(0.7, -0.4, 0.2)
    t = 1.37
    p = center + t * r.T[:, 0]  # unit vector with u = (t, 0, 0)
    expected = 1.1**2 * np.exp(-(0.9**2) * t * t)
    assert _value_at(b, p) == pytest.approx(expected, rel=1e-12)


def test_model_empty_evaluates_to_zero():
    m = RbfModel(coeff_sqrt=np.zeros(0), decay_sqrt=np.zeros((0, 3)),
                 centers=np.zeros((0, 3)), angles=np.zeros((0, 3)))
    assert np.array_equal(m.values(np.zeros((4, 3))), np.zeros(4))


def test_model_single_basis_matches_eval_basis(rng):
    # a batch of points gives the values of the points one at a time
    m = _random_model(rng, 1)
    p = rng.uniform(-2, 2, (7, 3))
    assert np.allclose(m.values(p), [_value_at(m, q) for q in p], rtol=1e-15)


def test_model_matches_double_loop_oracle(rng):
    m = _random_model(rng, 5)
    pts = rng.uniform(-4, 4, (100, 3))
    oracle = np.zeros(100)
    for c, d, center, ang in zip(m.coeff_sqrt, m.decay_sqrt, m.centers, m.angles):
        r = _reference_rotation(*ang)
        for k, p in enumerate(pts):
            u = r @ (p - center)
            oracle[k] += c**2 * np.exp(-np.sum(d**2 * u**2))
    assert np.max(np.abs(m.values(pts) - oracle)) < 1e-12


def test_model_nonnegative(rng):
    m = _random_model(rng, 4)
    pts = rng.uniform(-10, 10, (200, 3))
    assert (m.values(pts) >= 0).all()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_values_match_reference_loop(rng, n):
    m = _random_model(rng, n)
    pts = rng.uniform(-5, 5, (500, 3))
    ref = _reference_values(m.params, pts)
    assert np.max(np.abs(m.values(pts) - ref)) < 1e-12


def test_values_match_reference_loop_bundled(molecule, rng):
    m = init_model(molecule, decay=0.5)
    box = bounding_box(molecule)
    pts = rng.uniform(box.lo, box.hi, (5000, 3))
    ref = _reference_values(m.params, pts)
    assert np.max(np.abs(m.values(pts) - ref)) < 1e-12


# ---------------------------------------------------------------- grid path


def _grid_and_reference(model, box, spacing):
    grid = make_grid(box, spacing)
    ref = _reference_values(model.params, grid.points())
    return model.values(grid), ref


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1), spacing=st.floats(0.3, 1.0))
def test_grid_values_match_point_values(n, seed, spacing):
    # rotated anisotropic bases inside the box and outside it, weights from
    # tiny to large, decays from long-range to sharp
    rng = np.random.default_rng(seed)
    m = RbfModel(coeff_sqrt=rng.uniform(0.0, 3.0, n) ** 2,
                 decay_sqrt=rng.uniform(0.2, 1.5, (n, 3)),
                 centers=rng.uniform(-14, 14, (n, 3)),
                 angles=rng.uniform(-np.pi, np.pi, (n, 3)))
    grid = make_grid(Box(lo=rng.uniform(-7, -3, 3), hi=rng.uniform(3, 7, 3)), spacing)
    got = m.values(grid)
    ref = m.values(grid.points())
    assert got.shape == (len(grid),)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(ref, 1.0))


def test_grid_values_of_the_bundled_standin(molecule):
    m = init_model(molecule, decay=0.45)
    got, ref = _grid_and_reference(m, bounding_box(molecule), 0.5)
    assert np.array_equal(got < 1.0, ref < 1.0)
    assert np.max(np.abs(got - ref)) < 1e-12


# a rotation about z alone leaves an xy term alone, which the grid sum adds
# in its block loop, as it does every rotated row
@pytest.mark.parametrize("angles", [[0.0, 0.0, 0.0], [0.4, -0.9, 1.3], [0.0, 0.0, 0.7]])
def test_grid_values_with_a_zero_decay(angles):
    # no decay along a principal axis: the basis never falls off along it,
    # so its block spans the grid on every axis that direction has a share in
    m = RbfModel(coeff_sqrt=[1.2, 0.8], decay_sqrt=[[0.0, 0.9, 0.7], [0.8, 0.8, 0.8]],
                 centers=[[0.3, -0.2, 0.1], [1.0, 1.0, -1.0]], angles=[angles, angles])
    got, ref = _grid_and_reference(m, Box(lo=np.full(3, -4.0), hi=np.full(3, 4.0)), 0.5)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_grid_values_skip_zero_and_tiny_weights():
    box = Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0))
    zero = RbfModel(coeff_sqrt=[0.0, 1.1], decay_sqrt=np.full((2, 3), 0.8),
                    centers=np.zeros((2, 3)), angles=np.zeros((2, 3)))
    got, ref = _grid_and_reference(zero, box, 0.5)
    assert np.max(np.abs(got - ref)) < 1e-12
    # a weight below GRID_TAU / n contributes less than that anywhere
    tiny = RbfModel(coeff_sqrt=[np.sqrt(GRID_TAU / 2)], decay_sqrt=np.full((1, 3), 0.8),
                    centers=np.zeros((1, 3)), angles=np.zeros((1, 3)))
    got, ref = _grid_and_reference(tiny, box, 0.5)
    assert ref.max() > 0.0
    assert np.array_equal(got, np.zeros(len(got)))


def test_reach_boxes_drop_the_bases_below_the_floor():
    # four bases against the floor 1: n c~^2 / floor is 4 c~^2, so c~ = 0 and
    # c~^2 = 0.2 < 1 / 4 never reach the floor and are left out
    rng = np.random.default_rng(3)
    coeff = np.array([1.5, 0.0, np.sqrt(0.2), -2.0])
    m = RbfModel(coeff_sqrt=coeff, decay_sqrt=rng.uniform(0.2, 1.5, (4, 3)),
                 centers=rng.uniform(-5, 5, (4, 3)), angles=rng.uniform(-np.pi, np.pi, (4, 3)))
    kept, r, half = reach_boxes(m.params, 1.0)
    assert kept.tolist() == [0, 3]
    assert np.array_equal(r, rotations(m.angles[kept])[0])
    assert np.array_equal(half, reach(np.log(4 * coeff[kept] ** 2), r, m.decay_sqrt[kept]))


def test_grid_values_of_an_empty_model():
    m = RbfModel(coeff_sqrt=np.zeros(0), decay_sqrt=np.zeros((0, 3)),
                 centers=np.zeros((0, 3)), angles=np.zeros((0, 3)))
    grid = GridSpec(Box(lo=np.zeros(3), hi=np.ones(3)), (2, 2, 2))
    assert np.array_equal(m.values(grid), np.zeros(27))


def test_pack_length():
    m = _random_model(np.random.default_rng(0), 1)
    assert pack_parameters(m).shape == (10,)
    m7 = _random_model(np.random.default_rng(0), 7)
    assert pack_parameters(m7).shape == (70,)


def test_pack_unpack_roundtrip_bit_identical(rng):
    m = _random_model(rng, 6)
    back = unpack_parameters(pack_parameters(m), 6)
    assert np.array_equal(back.coeff_sqrt, m.coeff_sqrt)
    assert np.array_equal(back.decay_sqrt, m.decay_sqrt)
    assert np.array_equal(back.centers, m.centers)
    assert np.array_equal(back.angles, m.angles)


def test_unpack_copies_the_vector(rng):
    m = _random_model(rng, 3)
    x = pack_parameters(m)
    back = unpack_parameters(x, 3)
    x[:] = 0.0
    assert back == m


def test_model_equals_only_a_model(rng):
    m = _random_model(rng, 2)
    assert (m == object()) is False
    assert m != "model"


def test_pack_layout_rows(rng):
    # one row of ten per basis, [c~ | d~ | center | angles], the vector row by row
    c, d, centers, angles = (rng.uniform(-3, 3, shape) for shape in (3, (3, 3), (3, 3), (3, 3)))
    m = RbfModel(coeff_sqrt=c, decay_sqrt=d, centers=centers, angles=angles)
    assert m.params.shape == (3, 10) and m.params.flags.c_contiguous
    x = pack_parameters(m)
    for i in range(3):
        assert np.array_equal(x[10 * i:10 * (i + 1)], [c[i], *d[i], *centers[i], *angles[i]])
    assert np.array_equal(m.params, x.reshape(3, 10))
    assert not np.shares_memory(x, m.params)


def test_model_rejects_inconsistent_basis_arrays():
    with pytest.raises(ValueError, match="inconsistent basis array lengths"):
        RbfModel(coeff_sqrt=[1.0, 2.0], decay_sqrt=np.ones((2, 3)), centers=np.zeros((3, 3)),
                 angles=np.zeros((2, 3)))


def test_unpack_wrong_length():
    with pytest.raises(ValueError):
        unpack_parameters(np.zeros(11), 1)


def _objective(x, n, pts, tgt, ws, wl):
    m = unpack_parameters(x, n)
    r = m.values(pts) - tgt
    es = float(r @ r)
    el1 = float(m.coeff_sqrt @ m.coeff_sqrt + (m.decay_sqrt**2).sum())
    return ws * es + wl * el1


def test_gradient_zero_at_exact_fit(rng):
    m = _random_model(rng, 3)
    pts = rng.uniform(-3, 3, (40, 3))
    cs = ConstraintSet(points=pts, targets=m.values(pts))
    g = eval_model_gradient(m, cs, (1.0, 0.0))
    assert np.max(np.abs(g)) < 1e-10


def test_gradient_pure_l1_slots(rng):
    m = _random_model(rng, 2)
    pts = rng.uniform(-3, 3, (10, 3))
    cs = ConstraintSet(points=pts, targets=np.ones(10))
    g = eval_model_gradient(m, cs, (0.0, 1.0)).reshape(2, 10)
    assert np.allclose(g[:, 0], 2 * m.coeff_sqrt)
    assert np.allclose(g[:, 1:4], 2 * m.decay_sqrt)
    assert np.array_equal(g[:, 4:], np.zeros((2, 6)))


def test_gradient_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = _random_model(rng, n)
        M = int(rng.integers(10, 51))
        pts = rng.uniform(-4, 4, (M, 3))
        tgt = rng.uniform(0, 2, M)
        ws, wl = float(rng.uniform(0.01, 1)), float(rng.uniform(0, 1))
        cs = ConstraintSet(points=pts, targets=tgt)
        g = eval_model_gradient(m, cs, (ws, wl))
        x = pack_parameters(m)
        fd = np.empty_like(x)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (_objective(xp, n, pts, tgt, ws, wl)
                     - _objective(xm, n, pts, tgt, ws, wl)) / (2 * h)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() < 1e-5


def _reference_gradient(params, points, residual, w_s, w_l):
    """Per-point gradient loop: every slot summed directly over the points, in the table's order."""
    c, d, centers, ang = params[:, 0], params[:, 1:4], params[:, 4:7], params[:, 7:10]
    n = c.shape[0]
    gc = np.empty(n)
    gd = np.empty((n, 3))
    gx = np.empty((n, 3))
    gang = np.empty((n, 3))
    for i in range(n):
        r = _reference_rotation(*ang[i])
        dra, drb, drg = _reference_rotation_derivatives(*ang[i])
        p = points - centers[i]
        u = p @ r.T
        d2 = d[i] ** 2
        g = np.exp(-(u**2) @ d2)
        rg = residual * g
        rv = c[i] ** 2 * rg
        gc[i] = w_s * 4.0 * c[i] * rg.sum() + w_l * 2.0 * c[i]
        gd[i] = w_s * (-4.0) * d[i] * (rv[:, None] * u**2).sum(axis=0) + w_l * 2.0 * d[i]
        gx[i] = w_s * 4.0 * (r.T @ ((rv[:, None] * u * d2[None, :]).sum(axis=0)))
        for j, dr in enumerate((dra, drb, drg)):
            w = p @ dr.T
            gang[i, j] = w_s * (-4.0) * (rv * ((u * w) @ d2)).sum()
    return np.column_stack([gc, gd, gx, gang]).ravel()


def _assert_gradient_parity(m, cs, weights):
    # the moment form sums in a different order: agreement to rounding, not bits
    g = eval_model_gradient(m, cs, weights)
    residual = m.values(cs.points) - cs.targets
    ref = _reference_gradient(m.params, cs.points, residual, *weights)
    assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("weights", [(0.7, 0.3), (0.0, 1.0), (1.0, 0.0)],
                         ids=["mixed", "ws0", "wl0"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gradient_matches_reference_loop(rng, n, weights):
    m = _random_model(rng, n)
    pts = rng.uniform(-4, 4, (300, 3))
    cs = ConstraintSet(points=pts, targets=rng.uniform(0, 2, 300))
    _assert_gradient_parity(m, cs, weights)


def test_gradient_matches_reference_loop_bundled(molecule, rng):
    field = GaussianField.from_molecule(molecule, decay=0.5)
    cs = select_constraints(field, make_grid(bounding_box(molecule), 1.0), band=1.0)
    m0 = init_model(molecule, decay=0.5)
    n = m0.n_bases
    m = RbfModel(
        coeff_sqrt=m0.coeff_sqrt * (1 + 0.1 * rng.standard_normal(n)),
        decay_sqrt=m0.decay_sqrt * (1 + 0.1 * rng.standard_normal((n, 3))),
        centers=m0.centers + 0.2 * rng.standard_normal((n, 3)),
        angles=rng.uniform(-np.pi, np.pi, (n, 3)),
    )
    assert (n, len(cs)) == (21, 6964)
    _assert_gradient_parity(m, cs, (0.6, 0.4))


# points per block in the block-crossing property: small, so a pass crosses many blocks
_SMALL_BLOCK = 5


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       blocks=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)]),
       shift=st.sampled_from([0.0, 1000.0]))
def test_block_passes_match_the_reference_oracles(n, seed, blocks, shift):
    # M = k B + r points against rotated anisotropic bases, among them a
    # zero weight and a zero decay, optionally with everything moved 1000 A
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.2, 2.0, n)
    c[0] = 0.0
    d = rng.uniform(0.2, 1.2, (n, 3))
    d[-1, rng.integers(3)] = 0.0
    m = RbfModel(coeff_sqrt=c, decay_sqrt=d, centers=rng.uniform(-4, 4, (n, 3)) + shift,
                 angles=rng.uniform(-np.pi, np.pi, (n, 3)))
    k, r = blocks
    pts = rng.uniform(-6, 6, (k * _SMALL_BLOCK + r, 3)) + shift
    cs = ConstraintSet(points=pts, targets=rng.uniform(0, 2, len(pts)))
    weights = (float(rng.uniform(0.01, 1)), float(rng.uniform(0, 1)))
    moment_parts = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(erbfit.model, "BLOCK_DOUBLES", _SMALL_BLOCK * (10 + n))
        moment_part = erbfit.model._moment_part
        patch.setattr(erbfit.model, "_moment_part",
                      lambda *args: moment_parts.append(1) or moment_part(*args))
        values = m.values(pts)
        g = eval_model_gradient(m, cs, weights)
    # each block's moment part runs before the next block reuses the buffers
    # and the last block's when asked for: the values' pass runs all but the
    # last, the gradient's every one
    n_blocks = -(-len(pts) // _SMALL_BLOCK)
    assert len(moment_parts) == 2 * n_blocks - 1
    ref = _reference_values(m.params, pts)
    assert np.max(np.abs(values - ref)) <= 1e-12
    ref_g = _reference_gradient(m.params, pts, values - cs.targets, *weights)
    assert np.max(np.abs(g - ref_g)) <= 1e-12 * np.max(np.abs(ref_g))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       blocks=st.sampled_from([(0, 1), (1, 0), (1, 3), (4, 2)]),
       shift=st.sampled_from([0.0, 1000.0]))
def test_fused_pass_matches_the_oracles_and_carries_the_gradient(n, seed, blocks, shift):
    # M = k B + r points: the fused pass's residual and gradient table agree
    # with the reference loops, and the gradient table the fit takes from the
    # moments of its accepted trial, after a rejected one, is
    # eval_model_gradient at the accepted point to the bit, raveled
    rng = np.random.default_rng(seed)
    m = RbfModel(coeff_sqrt=rng.uniform(0.2, 2.0, n), decay_sqrt=rng.uniform(0.2, 1.2, (n, 3)),
                 centers=rng.uniform(-4, 4, (n, 3)) + shift,
                 angles=rng.uniform(-np.pi, np.pi, (n, 3)))
    k, r = blocks
    # points near the bases, so that a short enough step lowers the objective
    near = rng.integers(n, size=k * _SMALL_BLOCK + r)
    pts = m.centers[near] + rng.uniform(-2, 2, (near.size, 3))
    cs = ConstraintSet(points=pts, targets=rng.uniform(0, 2, len(pts)))
    weights = (float(rng.uniform(0.01, 1)), float(rng.uniform(0, 1)))
    searches = []  # [gradient, trials] of each line search of the current run
    line_search = erbfit.optimizer.line_search

    def recording_line_search(objective, x, f0, grad, *args, **kwargs):
        searches.append([grad, 0])

        def counted(x_trial):
            searches[-1][1] += 1
            f = objective(x_trial)
            # a run's first trial makes its whole pass and is then rejected
            return np.inf if len(searches) == searches[-1][1] == 1 else f
        return line_search(counted, x, f0, grad, *args, **kwargs)

    def run(iterations):
        searches.clear()
        # a prune_interval past the last iteration: no prune
        return optimize(m, cs, OptimizerConfig(max_iter=iterations, sparse_iter=iterations,
                                               prune_interval=10))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(erbfit.model, "BLOCK_DOUBLES", _SMALL_BLOCK * (10 + n))
        blocks_ = erbfit.model._PointBlocks(pts, n)
        residual, moments = erbfit.model._fused_pass(m.params, cs.targets, blocks_)
        g = erbfit.model._objective_gradient_arrays(m.params, moments, *weights).ravel()
        patch.setattr(erbfit.optimizer, "line_search", recording_line_search)
        one_step, _ = run(1)
        _, trace = run(2)
        at_step = eval_model_gradient(one_step, cs, (trace[1].ws, trace[1].wl))
    ref = _reference_values(m.params, pts)
    assert np.max(np.abs(residual - (ref - cs.targets))) <= 1e-12
    ref_g = _reference_gradient(m.params, pts, ref - cs.targets, *weights)
    assert np.max(np.abs(g - ref_g)) <= 1e-12 * np.max(np.abs(ref_g))
    assert trace[0].tau > 0.0 and trace[0].trials >= 2
    assert [r.trials for r in trace] == [t for _, t in searches]
    assert np.array_equal(searches[1][0].ravel(), at_step)


def _spread_case(rng, n, n_points, shift, extent=(60.0, 60.0, 60.0)):
    """n rotated anisotropic bases and n_points points in a box of the given
    extent (A) centred at shift, the points in x order as the grid gives
    them: the first basis has weight 0, the second no decay along one axis."""
    half = 0.5 * np.asarray(extent)
    c = rng.uniform(0.2, 2.0, n)
    c[0] = 0.0
    d = rng.uniform(0.4, 1.2, (n, 3))
    d[1, rng.integers(3)] = 0.0
    m = RbfModel(coeff_sqrt=c, decay_sqrt=d, centers=rng.uniform(-half, half, (n, 3)) + shift,
                 angles=rng.uniform(-np.pi, np.pi, (n, 3)))
    pts = rng.uniform(-half, half, (n_points, 3))
    pts = pts[np.argsort(pts[:, 0], kind="stable")] + shift
    return m, ConstraintSet(points=pts, targets=rng.uniform(0, 2, n_points))


def _reference_met(m, pts, size):
    """The cutoff rule of the _fused_pass docstring, one (block, basis) pair at a time."""
    met = np.zeros((-(-len(pts) // size), m.n_bases), dtype=bool)
    for i, row in enumerate(m.params):
        c, d, x, ang = abs(row[0]), np.abs(row[1:4]), row[4:7], row[7:10]
        with np.errstate(divide="ignore"):
            s = 2 * max(c, c * c * max(1.0, d.max()) / d.min(), c * c * d.max())
            level = np.log(m.n_bases * s / GRID_TAU)
        if not level > 0:
            continue
        level += np.log1p(2 * level)
        r = _reference_rotation(*ang)
        with np.errstate(divide="ignore"):
            half = np.sqrt([level * sum(r[a, p] ** 2 / d[a] ** 2 for a in range(3) if r[a, p] != 0)
                            for p in range(3)])
        for j in range(met.shape[0]):
            block = pts[j * size:(j + 1) * size]
            met[j, i] = np.all((x - half <= block.max(axis=0)) & (x + half >= block.min(axis=0)))
    return met


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
       blocks=st.sampled_from([(2, 0), (3, 7), (9, 1), (20, 13)]),
       shift=st.sampled_from([0.0, 1000.0]),
       extent=st.sampled_from([(60.0, 60.0, 60.0), (600.0, 6.0, 6.0)]))
def test_gathered_passes_match_the_reference_oracles(n, seed, blocks, shift, extent):
    # blocks of _SMALL_BLOCK points in x order: each block takes only the
    # bases whose reach box (_cutoff_boxes) meets its box of points.  The
    # zero weight meets no block and the zero decay, of infinite reach, every
    # block; the values and the gradient agree with the exact loops as the
    # full passes do.  On the 600 A rod a block's points lie hundreds of A
    # from the points' centroid, so one origin shared by every block would
    # lose about 1e-11
    rng = np.random.default_rng(seed)
    k, r = blocks
    m, cs = _spread_case(rng, n, k * _SMALL_BLOCK + r, shift, extent)
    pts = cs.points
    weights = (float(rng.uniform(0.01, 1)), float(rng.uniform(0, 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(erbfit.model, "BLOCK_DOUBLES", _SMALL_BLOCK * (10 + n))
        values = m.values(pts)
        g = eval_model_gradient(m, cs, weights)
        pass_blocks = erbfit.model._PointBlocks(pts, n)
        residual, _ = erbfit.model._fused_pass(m.params, cs.targets, pass_blocks)
        assert np.array_equal(values - cs.targets, residual)
    lo, hi = erbfit.model._cutoff_boxes(m.params, rotations(m.angles)[0])
    met = ~((lo > pass_blocks.hi) | (hi < pass_blocks.lo)).any(axis=1)
    assert met[:, 1].all() and not met[:, 0].any()
    assert np.array_equal(met, _reference_met(m, pts, _SMALL_BLOCK))
    assert pass_blocks.all_pairs == met.size
    assert pass_blocks.kept_pairs == met.sum() < met.size
    ref = _reference_values(m.params, pts)
    assert np.max(np.abs(values - ref)) <= 1e-12
    ref_g = _reference_gradient(m.params, pts, values - cs.targets, *weights)
    assert np.max(np.abs(g - ref_g)) <= 1e-12 * np.max(np.abs(ref_g))


def test_gathered_pass_keeps_a_non_finite_basis():
    # a trial step may overflow a parameter: the pass must then give a
    # non-finite result in every block, as the full pass does, for the line
    # search to reject the step
    rng = np.random.default_rng(3)
    m, cs = _spread_case(rng, 8, 40 * _SMALL_BLOCK, 0.0)
    # one column of each field: c~, d~_1, x, alpha
    for name, col, value in (("coeff_sqrt", 0, np.inf), ("decay_sqrt", 1, np.nan),
                             ("centers", 4, np.inf), ("angles", 7, np.inf)):
        params = m.params.copy()
        params[3, col] = value
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(erbfit.model, "BLOCK_DOUBLES", _SMALL_BLOCK * 18)
            blocks_ = erbfit.model._PointBlocks(cs.points, 8)
            residual, _ = erbfit.model._fused_pass(params, cs.targets, blocks_)
        assert not np.isfinite(residual).all(), name
        assert blocks_.kept_pairs < blocks_.all_pairs


def test_eval_model_gradient_makes_one_point_pass(rng, point_passes):
    m = _random_model(rng, 4)
    cs = ConstraintSet(points=rng.uniform(-4, 4, (300, 3)), targets=rng.uniform(0, 2, 300))
    eval_model_gradient(m, cs, (0.6, 0.4))
    assert point_passes == {"passes": 1, "moments": 1, "rotations": 1}


def test_values_at_points_make_one_point_pass(rng, point_passes):
    # one block: nothing asks for the moments, so the moment part never runs
    m = _random_model(rng, 4)
    m.values(rng.uniform(-4, 4, (300, 3)))
    assert point_passes == {"passes": 1, "moments": 0, "rotations": 1}


@pytest.mark.parametrize("shape", [(5, 2), (3,)])
def test_values_refuse_points_that_are_not_m_by_3(rng, shape):
    with pytest.raises(ValueError, match=r"expected \(M, 3\) points, got shape"):
        _random_model(rng, 2).values(np.zeros(shape))


def test_gathered_gradient_makes_one_point_pass(rng, point_passes, monkeypatch):
    # the cutoff takes its rotations from the pass: still one pass, one
    # call, and one moment part for each of the 60 blocks
    m, cs = _spread_case(rng, 6, 300, 0.0)
    monkeypatch.setattr(erbfit.model, "BLOCK_DOUBLES", _SMALL_BLOCK * 16)
    eval_model_gradient(m, cs, (0.6, 0.4))
    assert point_passes == {"passes": 1, "moments": 60, "rotations": 1}


def test_gathered_values_leave_the_last_moment_part_unrun(rng, point_passes, monkeypatch):
    # a block's moment part runs when the next block comes, the last block's
    # only when asked for, which values never do: 59 of the 60 blocks
    m, cs = _spread_case(rng, 6, 300, 0.0)
    monkeypatch.setattr(erbfit.model, "BLOCK_DOUBLES", _SMALL_BLOCK * 16)
    m.values(cs.points)
    assert point_passes == {"passes": 1, "moments": 59, "rotations": 1}


@pytest.mark.parametrize("blocks", [1, 4])
def test_moments_asked_for_after_a_later_pass_raise(rng, blocks, monkeypatch):
    # the last block's moment part reads the value part's buffers, so once a
    # later pass has overwritten them the moments of the earlier pass raise,
    # whatever the block count; moments already taken are kept
    m = _random_model(rng, 4)
    pts = rng.uniform(-4, 4, (40, 3))
    monkeypatch.setattr(erbfit.model, "BLOCK_DOUBLES", (40 // blocks) * (10 + 4))
    pass_blocks = erbfit.model._PointBlocks(pts, 4)
    _, first = erbfit.model._fused_pass(m.params, np.zeros(40), pass_blocks)
    _, second = erbfit.model._fused_pass(m.params, np.ones(40), pass_blocks)
    kept = second()
    erbfit.model._fused_pass(m.params, np.zeros(40), pass_blocks)
    assert second() is kept
    with pytest.raises(RuntimeError, match="after a later pass"):
        first()


def test_passes_allocate_no_bases_by_points_temporary():
    rng = np.random.default_rng(7)
    n, n_points = 200, 20_000
    m = _random_model(rng, n)
    cs = ConstraintSet(points=rng.uniform(-5, 5, (n_points, 3)),
                       targets=rng.uniform(0, 2, n_points))
    tracemalloc.start()
    try:
        m.values(cs.points)
        eval_model_gradient(m, cs, (0.5, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n_points * 8 / 4  # bytes; an (n, M) array alone would be n * M doubles


def test_a_pass_over_many_blocks_holds_no_blocks_by_bases_table(monkeypatch):
    # 2000 blocks of 5 points against 1000 bases: the cutoff tests each block
    # against per-basis boxes, so the pass holds less than a (blocks, bases)
    # bool table would on its own
    rng = np.random.default_rng(11)
    n, n_blocks = 1000, 2000
    m, cs = _spread_case(rng, n, n_blocks * _SMALL_BLOCK, 0.0)
    monkeypatch.setattr(erbfit.model, "BLOCK_DOUBLES", _SMALL_BLOCK * (10 + n))
    pass_blocks = erbfit.model._PointBlocks(cs.points, n)
    tracemalloc.start()
    try:
        erbfit.model._fused_pass(m.params, cs.targets, pass_blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pass_blocks.lo.shape[0] == n_blocks
    assert peak < n_blocks * n  # bytes


def test_gradient_needs_points(rng):
    # any object with points and targets serves; a ConstraintSet is never empty
    no_points = SimpleNamespace(points=np.zeros((0, 3)), targets=np.zeros(0))
    with pytest.raises(ValueError, match="constraint set must contain at least one point"):
        eval_model_gradient(_random_model(rng, 2), no_points, (1.0, 0.0))


@pytest.mark.parametrize("points, n_targets, message", [
    (np.zeros((5, 2)), 5, r"expected \(M, 3\) points, got shape \(5, 2\)"),
    (np.zeros(15), 15, r"expected \(M, 3\) points, got shape \(15,\)"),
    (np.zeros((5, 3)), 4, "disagree in length"),
    (np.zeros((5, 3)), 6, "disagree in length"),
])
def test_gradient_refuses_points_and_targets_that_do_not_fit(rng, points, n_targets, message):
    constraints = SimpleNamespace(points=points, targets=np.zeros(n_targets))
    with pytest.raises(ValueError, match=message):
        eval_model_gradient(_random_model(rng, 2), constraints, (1.0, 0.0))


def test_gradient_empty_rejected():
    with pytest.raises(ValueError):
        eval_model_gradient(
            RbfModel(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3))),
            ConstraintSet(points=np.zeros((1, 3)), targets=np.zeros(1)),
            (1.0, 0.0),
        )


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _any_models(draw):
    """Models of 1-5 bases over every finite double: -0.0, subnormals, exponents."""
    n = draw(st.integers(1, 5))
    arrays = [np.array(draw(st.lists(_FINITE, min_size=n * k, max_size=n * k)))
              for k in (1, 3, 3, 3)]
    return RbfModel(*arrays)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=_any_models())
def test_save_load_roundtrip_bit_exact(m, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    with np.errstate(over="ignore"):
        squares = np.concatenate([m.coeff_sqrt ** 2, m.decay_sqrt.ravel() ** 2])
    if not np.isfinite(squares).all():
        # a square beyond the largest double has no JSON number
        with pytest.raises(ValueError, match="overflows a double"):
            save_model(m, path)
        assert not path.exists()
        return
    save_model(m, path, metadata={"source": "test", "decay": 0.5})
    back, meta = load_model(path)
    assert back == m
    for name in ("coeff_sqrt", "decay_sqrt", "centers", "angles"):
        assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(m, name))), name
    assert meta["source"] == "test"
    # effective values stored alongside the optimization variables
    doc = json.loads(path.read_text())
    assert doc["bases"][0]["weight"] == pytest.approx(m.coeff_sqrt[0] ** 2, rel=1e-15)
    # the document's text, written as it is encoded, is the indented JSON
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


_MODERATE = st.floats(-1e150, 1e150)  # squares stay finite, so every model saves


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_rows_survive_pack_save_load_and_prune(n, data, tmp_path_factory):
    # one basis is one row, in one order, from the vector to the JSON record
    # and back, and pruning selects whole rows
    params = np.array(data.draw(st.lists(_MODERATE, min_size=10 * n, max_size=10 * n)))
    m = unpack_parameters(params, n)
    assert np.array_equal(_bits(pack_parameters(m)), _bits(params))
    path = tmp_path_factory.mktemp("rows") / "model.json"
    save_model(m, path)
    for i, basis in enumerate(json.loads(path.read_text())["bases"]):
        record = [basis["coeff_sqrt"], *basis["decay_sqrt"], *basis["center"], *basis["angles"]]
        assert np.array_equal(_bits(record), _bits(m.params[i])), i
    back, _ = load_model(path)
    tol = min(data.draw(st.floats(0.0, 1e150)), float(np.abs(m.coeff_sqrt).max()))
    pruned = erbfit.optimizer.prune(back, tol)
    keep = np.abs(m.coeff_sqrt) >= tol
    assert np.array_equal(_bits(pruned.params), _bits(m.params[keep]))
    assert pruned.params.flags.c_contiguous


def test_load_rejects_other_documents(tmp_path):
    p = tmp_path / "bogus.json"
    p.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        load_model(p)
    p.write_text('{"format": "erbfit-model", "version": 99, "bases": []}')
    with pytest.raises(ValueError):
        load_model(p)


_BASIS = ('{"coeff_sqrt": 1.2, "decay_sqrt": [0.7, 0.7, 0.7], '
          '"center": [0.0, 1.0, 2.0], "angles": [0.1, 0.2, 0.3]}')


def _model_doc(bases="[" + _BASIS + "]", metadata="{}"):
    return ('{"format": "erbfit-model", "version": 1, '
            f'"metadata": {metadata}, "bases": {bases}}}')


def _bad_basis(old, new):
    """A one-basis document with one piece of the basis text replaced."""
    return _model_doc(bases="[" + _BASIS.replace(old, new) + "]")


def test_load_accepts_well_formed_document(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(_model_doc(metadata='{"box_lo": [0, 0, 0], "box_hi": [1, 1, 1]}'))
    model, meta = load_model(p)
    assert model.n_bases == 1
    assert np.array_equal(model.centers, [[0.0, 1.0, 2.0]])
    assert meta["box_hi"] == [1, 1, 1]


@pytest.mark.parametrize("text", [
    pytest.param("[]", id="not-object"),
    pytest.param('{"format": "erbfit-model", "version": 1}', id="no-bases"),
    pytest.param(_model_doc(bases="[]"), id="empty-bases"),
    pytest.param(_model_doc(bases='{"0": {}}'), id="bases-not-list"),
    pytest.param(_model_doc(bases="[1.5]"), id="basis-not-object"),
    pytest.param(_bad_basis("coeff_sqrt", "coeff"), id="no-coeff"),
    pytest.param(_bad_basis("center", "centre"), id="no-center"),
    pytest.param(_bad_basis("[0.7, 0.7, 0.7]", "[0.7, 0.7]"), id="short-decay"),
    pytest.param(_bad_basis("[0.0, 1.0, 2.0]", "[[0.0, 1.0, 2.0]]"), id="nested-center"),
    pytest.param(_bad_basis("0.3]", '"0.3"]'), id="string-angle"),
    pytest.param(_bad_basis("1.2", "NaN"), id="nan-coeff"),
    pytest.param(_bad_basis("2.0]", "Infinity]"), id="inf-center"),
    pytest.param(_bad_basis("1.2", "true"), id="bool-coeff"),
    pytest.param(_bad_basis("1.2", "1" + "0" * 400), id="huge-int-coeff"),
    # finite numbers whose weight c~^2 or decay d~^2 overflows, as save_model refuses
    pytest.param(_bad_basis("1.2", "1e200"), id="overflowing-weight"),
    pytest.param(_bad_basis("[0.7, 0.7, 0.7]", "[0.7, 1e155, 0.7]"), id="overflowing-decay"),
    pytest.param(_model_doc(metadata="[]"), id="metadata-not-object"),
    pytest.param(_model_doc(metadata='{"box_lo": [0, 0], "box_hi": [1, 1, 1]}'),
                 id="short-box"),
])
def test_load_rejects_malformed_model(tmp_path, text):
    p = tmp_path / "model.json"
    p.write_text(text)
    with pytest.raises(ValueError):
        load_model(p)
