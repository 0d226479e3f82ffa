"""Ellipsoid RBF model: rotations, evaluation, packing, gradient, persistence.

The gradient is checked against central finite differences of an
independently written objective; rotations are checked against explicit
single-axis matrices composed in the test.
"""

import numpy as np
import pytest

from erbfit.field import GaussianField, bounding_box
from erbfit.initializer import init_model
from erbfit.model import (
    EllipsoidRbf,
    RbfModel,
    RotationAngles,
    eval_basis,
    eval_model,
    eval_model_gradient,
    load_model,
    pack_parameters,
    rotation_derivatives,
    rotation_matrix,
    save_model,
    unpack_parameters,
)
from erbfit.sampler import ConstraintSet, make_grid, select_constraints


def _reference_rotation(alpha, beta, gamma):
    """Independent composition from the printed single-axis matrices."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]], dtype=float)
    ry = np.array([[cb, 0, -sb], [0, 1, 0], [sb, 0, cb]], dtype=float)
    rz = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]], dtype=float)
    return rz @ ry @ rx


def _random_model(rng, n):
    return RbfModel(
        coeff_sqrt=rng.uniform(0.2, 2.0, n),
        decay_sqrt=rng.uniform(0.3, 1.2, (n, 3)),
        centers=rng.uniform(-3, 3, (n, 3)),
        angles=rng.uniform(-np.pi, np.pi, (n, 3)),
    )


def test_rotation_identity_at_zero():
    assert np.array_equal(rotation_matrix(0.0, 0.0, 0.0), np.eye(3))


def test_rotation_x_quarter_turn():
    r = rotation_matrix(np.pi / 2, 0.0, 0.0)
    expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.allclose(r, expected, atol=1e-15)


def test_rotation_y_sign_convention():
    # the y-rotation here carries -sin(beta) in the first row, third column
    r = rotation_matrix(0.0, np.pi / 2, 0.0)
    assert r[0, 2] == pytest.approx(-1.0, abs=1e-15)
    assert r[2, 0] == pytest.approx(1.0, abs=1e-15)


def test_rotation_orthogonality(rng):
    for _ in range(50):
        a, b, g = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        r = rotation_matrix(a, b, g)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r, _reference_rotation(a, b, g), atol=1e-14)


def test_rotation_derivatives_match_finite_differences(rng):
    h = 1e-6
    for _ in range(20):
        ang = rng.uniform(-np.pi, np.pi, 3)
        analytic = rotation_derivatives(*ang)
        for axis in range(3):
            ap, am = ang.copy(), ang.copy()
            ap[axis] += h
            am[axis] -= h
            fd = (rotation_matrix(*ap) - rotation_matrix(*am)) / (2 * h)
            assert np.allclose(analytic[axis], fd, atol=1e-8)


def test_basis_value_at_center(rng):
    b = EllipsoidRbf(coeff_sqrt=1.3, decay_sqrt=np.array([0.5, 0.9, 0.7]),
                     center=np.array([1.0, -2.0, 0.5]),
                     angles=RotationAngles(0.3, -0.1, 2.0))
    assert eval_basis(b, b.center) == pytest.approx(1.3**2, rel=1e-15)


def test_basis_isotropic_rotation_invariance(rng):
    d = np.sqrt(0.5)
    for _ in range(10):
        angles = RotationAngles(*rng.uniform(-np.pi, np.pi, 3))
        b = EllipsoidRbf(coeff_sqrt=0.8, decay_sqrt=np.array([d, d, d]),
                         center=np.zeros(3), angles=angles)
        p = rng.uniform(-2, 2, 3)
        iso = 0.8**2 * np.exp(-0.5 * (p @ p))
        assert eval_basis(b, p) == pytest.approx(iso, rel=1e-12)


def test_basis_zero_coefficient():
    b = EllipsoidRbf(coeff_sqrt=0.0, decay_sqrt=np.ones(3),
                     center=np.zeros(3), angles=RotationAngles(0, 0, 0))
    assert eval_basis(b, np.array([0.3, 0.1, -0.5])) == 0.0


def test_basis_level_set_along_principal_axis(rng):
    # along the rotated first axis the basis is a 1-D Gaussian in the
    # axis coordinate
    b = EllipsoidRbf(coeff_sqrt=1.1, decay_sqrt=np.array([0.9, 0.4, 0.6]),
                     center=np.array([0.5, 0.5, 0.5]),
                     angles=RotationAngles(0.7, -0.4, 0.2))
    r = rotation_matrix(0.7, -0.4, 0.2)
    t = 1.37
    p = b.center + t * r.T[:, 0]  # unit vector with u = (t, 0, 0)
    expected = 1.1**2 * np.exp(-(0.9**2) * t * t)
    assert eval_basis(b, p) == pytest.approx(expected, rel=1e-12)


def test_model_empty_evaluates_to_zero():
    m = RbfModel(coeff_sqrt=np.zeros(0), decay_sqrt=np.zeros((0, 3)),
                 centers=np.zeros((0, 3)), angles=np.zeros((0, 3)))
    assert np.array_equal(m.values(np.zeros((4, 3))), np.zeros(4))


def test_model_single_basis_matches_eval_basis(rng):
    m = _random_model(rng, 1)
    p = rng.uniform(-2, 2, (7, 3))
    b = m.bases[0]
    assert np.allclose(m.values(p), [eval_basis(b, q) for q in p], rtol=1e-15)


def test_model_matches_double_loop_oracle(rng):
    m = _random_model(rng, 5)
    pts = rng.uniform(-4, 4, (100, 3))
    oracle = np.zeros(100)
    for b in m.bases:
        r = rotation_matrix(b.angles.alpha, b.angles.beta, b.angles.gamma)
        for k, p in enumerate(pts):
            u = r @ (p - b.center)
            oracle[k] += b.coeff_sqrt**2 * np.exp(-np.sum(b.decay_sqrt**2 * u**2))
    assert np.max(np.abs(eval_model(m, pts) - oracle)) < 1e-12


def test_model_nonnegative(rng):
    m = _random_model(rng, 4)
    pts = rng.uniform(-10, 10, (200, 3))
    assert (eval_model(m, pts) >= 0).all()


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


def test_pack_layout_blocks(rng):
    m = _random_model(rng, 3)
    x = pack_parameters(m)
    assert np.array_equal(x[0:3], m.coeff_sqrt)
    assert np.array_equal(x[3:6], m.decay_sqrt[:, 0])
    assert np.array_equal(x[6:9], m.decay_sqrt[:, 1])
    assert np.array_equal(x[9:12], m.decay_sqrt[:, 2])
    assert np.array_equal(x[12:21], m.centers.ravel())
    assert np.array_equal(x[21:24], m.angles[:, 0])


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
    g = eval_model_gradient(m, cs, (0.0, 1.0))
    assert np.allclose(g[0:2], 2 * m.coeff_sqrt)
    assert np.allclose(g[2:4], 2 * m.decay_sqrt[:, 0])
    assert np.allclose(g[4:6], 2 * m.decay_sqrt[:, 1])
    assert np.allclose(g[6:8], 2 * m.decay_sqrt[:, 2])
    assert np.array_equal(g[8:], np.zeros(12))


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


def _reference_gradient(c, d, centers, ang, points, residual, w_s, w_l):
    """Per-point gradient loop: every slot summed directly over the points."""
    n = c.shape[0]
    gc = np.empty(n)
    gd = np.empty((n, 3))
    gx = np.empty((n, 3))
    gang = np.empty((n, 3))
    for i in range(n):
        r = rotation_matrix(*ang[i])
        dra, drb, drg = rotation_derivatives(*ang[i])
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
    return np.concatenate([gc, gd[:, 0], gd[:, 1], gd[:, 2], gx.ravel(),
                           gang[:, 0], gang[:, 1], gang[:, 2]])


def _assert_gradient_parity(m, cs, weights):
    # the moment form sums in a different order: agreement to rounding, not bits
    g = eval_model_gradient(m, cs, weights)
    residual = m.values(cs.points) - cs.targets
    ref = _reference_gradient(m.coeff_sqrt, m.decay_sqrt, m.centers, m.angles,
                              cs.points, residual, *weights)
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


def test_gradient_empty_rejected():
    with pytest.raises(ValueError):
        eval_model_gradient(
            RbfModel(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3))),
            ConstraintSet(points=np.zeros((1, 3)), targets=np.zeros(1)),
            (1.0, 0.0),
        )


def test_save_load_roundtrip_bit_exact(rng, tmp_path):
    m = _random_model(rng, 4)
    path = tmp_path / "model.json"
    save_model(m, path, metadata={"source": "test", "decay": 0.5})
    back, meta = load_model(path)
    assert back == m
    assert meta["source"] == "test"
    # effective values stored alongside the optimization variables
    import json
    doc = json.loads(path.read_text())
    assert doc["bases"][0]["weight"] == pytest.approx(m.coeff_sqrt[0] ** 2, rel=1e-15)


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
    pytest.param(_model_doc(metadata="[]"), id="metadata-not-object"),
    pytest.param(_model_doc(metadata='{"box_lo": [0, 0], "box_hi": [1, 1, 1]}'),
                 id="short-box"),
])
def test_load_rejects_malformed_model(tmp_path, text):
    p = tmp_path / "model.json"
    p.write_text(text)
    with pytest.raises(ValueError):
        load_model(p)
