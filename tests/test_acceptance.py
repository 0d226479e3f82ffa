"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints one ACCEPTANCE line on success; a failing test reports
through the normal pytest mechanism.  Criteria 5, 6 and 9 share one pair of
full command-line runs on the bundled molecule (module fixture below).
"""

import json
import time

import numpy as np
import pytest

from erbfit.cli import main
from erbfit.field import Box, GaussianField, bounding_box
from erbfit.initializer import init_model
from erbfit.mesh import (
    TriMesh,
    compare_surfaces,
    extract_isosurface,
    hausdorff,
    mesh_area,
    mesh_volume,
)
from erbfit.model import (
    RbfModel,
    eval_model_gradient,
    pack_parameters,
    unpack_parameters,
)
from erbfit.optimizer import (
    OptimizerConfig,
    adaptive_weights,
    energy_terms,
    fit_residual,
    max_pointwise_error,
    optimize,
)
from erbfit.sampler import ConstraintSet, make_grid, select_constraints

FIT_ARGS = ["--max-iter", "2000", "--sparse-iter", "1500"]


@pytest.fixture(scope="module")
def bundle_runs(tmp_path_factory, bundled_pqr):
    """Two identical reduced-iteration fits of the bundled molecule plus a
    surface comparison of the first fit against the original field."""
    dir_a = tmp_path_factory.mktemp("run_a")
    dir_b = tmp_path_factory.mktemp("run_b")
    for d in (dir_a, dir_b):
        code = main(["sparsify", str(bundled_pqr), "--out", str(d),
                     "--deterministic", *FIT_ARGS])
        assert code == 0, "sparsify run failed"
    code = main(["compare", str(bundled_pqr), str(dir_a / "model.json"),
                 "--out", str(dir_a)])
    assert code == 0, "compare run failed"
    return dir_a, dir_b


def _parse_trace(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("iter,"):
            continue
        it, f, es, el1, ws, wl, nbasis, tau = line.split(",")
        rows.append((int(it), float(f), float(es), float(el1),
                     float(ws), float(wl), int(nbasis), float(tau)))
    return rows


def test_criterion_1_exact_start(molecule, rng):
    field = GaussianField.from_molecule(molecule, decay=0.5)
    model = init_model(molecule, decay=0.5)
    box = bounding_box(molecule)
    points = rng.uniform(box.lo, box.hi, size=(10_000, 3))
    phi = field.values(points)
    phi_tilde = model.values(points)
    worst = float(np.max(np.abs(phi_tilde - phi)))
    assert worst < 1e-10
    print(f"ACCEPTANCE 1: PASS (max |phi_tilde - phi| = {worst:.3e} over 1e4 points)")


def test_criterion_2_gradient_correctness(rng):
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(20, 101))
        model = RbfModel(
            coeff_sqrt=rng.uniform(0.2, 2.0, n),
            decay_sqrt=rng.uniform(0.3, 1.2, (n, 3)),
            centers=rng.uniform(-3.0, 3.0, (n, 3)),
            angles=rng.uniform(-np.pi, np.pi, (n, 3)),
        )
        cs = ConstraintSet(points=rng.uniform(-4.0, 4.0, (m, 3)),
                           targets=rng.uniform(0.0, 2.0, m))
        ws, wl = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.0, 1.0))

        grad = eval_model_gradient(model, cs, (ws, wl))
        x = pack_parameters(model)

        def objective(v):
            trial = unpack_parameters(v, n)
            es, el1 = energy_terms(trial, fit_residual(trial, cs))
            return ws * es + wl * el1

        fd = np.empty_like(x)
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (objective(xp) - objective(xm)) / (2.0 * h)

        # guard the denominator: components can vanish identically (for
        # example rotation gradients of a nearly isotropic basis)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5
    print(f"ACCEPTANCE 2: PASS (worst componentwise relative error = {worst:.3e})")


def test_criterion_3_oracle_recovery(rng):
    t0 = time.perf_counter()
    known = RbfModel(
        coeff_sqrt=np.array([1.8]),
        decay_sqrt=np.sqrt([[0.5, 0.8, 0.35]]),
        centers=np.zeros((1, 3)),
        angles=np.array([[0.4, -0.3, 1.1]]),
    )
    box = Box(lo=np.full(3, -4.0), hi=np.full(3, 4.0))
    grid = make_grid(box, 0.7)
    pts = grid.points()
    targets = known.values(pts)
    band = np.abs(targets - 1.0) <= 1.0
    cs = ConstraintSet(points=pts[band], targets=targets[band])

    start = RbfModel(
        coeff_sqrt=np.concatenate([known.coeff_sqrt, np.full(4, 1e-4)]),
        decay_sqrt=np.vstack([known.decay_sqrt,
                              np.sqrt(0.5) * (1 + 0.2 * rng.standard_normal((4, 3)))]),
        centers=np.vstack([known.centers, rng.uniform(-1.0, 1.0, (4, 3))]),
        angles=np.vstack([known.angles, np.zeros((4, 3))]),
    )
    cfg = OptimizerConfig(max_iter=300, sparse_iter=100, prune_interval=20)
    final, _ = optimize(start, cs, cfg)
    err = max_pointwise_error(fit_residual(final, cs))
    wall = time.perf_counter() - t0
    assert final.n_bases == 1
    assert err < 0.05
    assert wall < 120.0
    print(f"ACCEPTANCE 3: PASS (1 of 5 bases survives, max error = {err:.2e}, "
          f"{wall:.1f} s)")


def test_criterion_4_sphere_geometry():
    field = GaussianField(centers=np.zeros((1, 3)), radii=np.array([1.5]), decay=0.5)
    box = Box(lo=np.full(3, -3.5), hi=np.full(3, 3.5))
    mesh = extract_isosurface(field.values, box, 0.1, 1.0)
    area = mesh_area(mesh)
    volume = mesh_volume(mesh)
    area_ref = 4.0 * np.pi * 1.5**2
    volume_ref = 4.0 / 3.0 * np.pi * 1.5**3
    assert abs(area - area_ref) / area_ref < 0.02
    assert abs(volume - volume_ref) / volume_ref < 0.02
    print(f"ACCEPTANCE 4: PASS (area {area:.3f} vs {area_ref:.3f}, "
          f"volume {volume:.3f} vs {volume_ref:.3f})")


def test_criterion_5_sparsification_envelope(bundle_runs):
    dir_a, _ = bundle_runs
    meta = json.loads((dir_a / "model.json").read_text())["metadata"]
    ratio = meta["final"]["sparse_ratio"]
    report = json.loads((dir_a / "compare.json").read_text())["report"]
    wall = None
    for line in (dir_a / "summary.txt").read_text().splitlines():
        if line.startswith("wall_time_s="):
            wall = float(line.split("=", 1)[1])
    assert ratio <= 0.5
    assert report["Error_A"] <= 0.05
    assert report["Error_V"] <= 0.05
    assert report["H"] <= 1.5
    assert wall is not None and wall <= 1800.0
    print(f"ACCEPTANCE 5: PASS (S_r = {ratio:.3f}, Error_A = {report['Error_A']:.4f}, "
          f"Error_V = {report['Error_V']:.4f}, H = {report['H']:.3f} A, "
          f"fit in {wall:.0f} s)")


def test_criterion_6_trace_properties(bundle_runs):
    dir_a, _ = bundle_runs
    rows = _parse_trace(dir_a / "trace.csv")
    assert len(rows) == 2000
    nbasis = [r[6] for r in rows]
    assert all(b <= a for a, b in zip(nbasis, nbasis[1:]))

    # acceptance of a step may never raise the objective it was taken under;
    # comparable consecutive rows share weights and basis count, so the next
    # row's f is exactly the accepted value
    checked = 0
    for prev, cur in zip(rows, rows[1:]):
        same_weights = prev[4] == cur[4] and prev[5] == cur[5]
        if same_weights and prev[6] == cur[6] and prev[7] > 0.0:
            assert cur[1] < prev[1], f"objective rose after iteration {prev[0]}"
            checked += 1
    assert checked > 100

    post = [r for r in rows if r[0] > 1500]
    assert all(r[5] == 0.0 for r in post)
    assert len({r[6] for r in post}) == 1
    print(f"ACCEPTANCE 6: PASS (basis count non-increasing, {checked} accepted "
          f"steps all decreasing, pure-accuracy phase frozen after 1500)")


def test_criterion_7_weight_identities(molecule):
    assert adaptive_weights(3.0, 1.0, 0.01) == (0.75, 0.25)
    assert adaptive_weights(0.0, 5.0, 0.01) == (0.01, 1.0)

    # a grossly misfit model must force one pure-accuracy iteration even
    # though the adaptive rule would keep a regularization share
    field = GaussianField.from_molecule(molecule, decay=0.5)
    cs = select_constraints(field, make_grid(bounding_box(molecule), 1.5), band=1.0)
    m0 = init_model(molecule, decay=0.5)
    bad = RbfModel(coeff_sqrt=1.3 * m0.coeff_sqrt, decay_sqrt=m0.decay_sqrt.copy(),
                   centers=m0.centers.copy(), angles=m0.angles.copy())
    assert max_pointwise_error(fit_residual(bad, cs)) > 0.5
    es, el1 = energy_terms(bad, fit_residual(bad, cs))
    assert adaptive_weights(es, el1, 0.01) != (1.0, 0.0)
    _, trace = optimize(bad, cs, OptimizerConfig(max_iter=1, sparse_iter=1))
    assert (trace[0].ws, trace[0].wl) == (1.0, 0.0)
    print("ACCEPTANCE 7: PASS (adaptive identities hold, error cap forces (1, 0))")


def test_criterion_8_metric_identities():
    verts = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=float)
    tris = np.array([
        [0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
        [0, 1, 5], [0, 5, 4], [2, 3, 7], [2, 7, 6],
        [0, 4, 7], [0, 7, 3], [1, 2, 6], [1, 6, 5],
    ])
    cube = TriMesh(vertices=verts, triangles=tris)
    assert mesh_area(cube) == pytest.approx(6.0, abs=1e-12)
    assert mesh_volume(cube) == pytest.approx(1.0, abs=1e-12)

    field = GaussianField(centers=np.zeros((1, 3)), radii=np.array([1.5]), decay=0.5)
    box = Box(lo=np.full(3, -3.0), hi=np.full(3, 3.0))
    sphere = extract_isosurface(field.values, box, 0.25, 1.0)
    assert hausdorff(sphere, sphere) <= 1e-12

    rep = compare_surfaces(field.values, field.values, box, 0.25, 1.0)
    assert rep["Error_A"] == 0.0
    assert rep["Error_V"] == 0.0
    assert rep["H"] <= 1e-12

    t = 0.4
    moved = sphere.translated(np.array([t, 0.0, 0.0]))
    h = hausdorff(sphere, moved)
    corners = sphere.corners()
    max_edge = max(
        float(np.linalg.norm(corners[i] - corners[j], axis=1).max())
        for i, j in ((0, 1), (1, 2), (2, 0)))
    sampling_tol = max_edge / 3.0  # spacing of the per-triangle sample lattice
    assert abs(h - t) <= 2.0 * sampling_tol
    print(f"ACCEPTANCE 8: PASS (identities exact, translate H = {h:.4f} vs {t})")


def test_criterion_9_determinism(bundle_runs):
    dir_a, dir_b = bundle_runs
    for name in ("model.json", "trace.csv", "weights.txt"):
        a = (dir_a / name).read_bytes()
        b = (dir_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    print("ACCEPTANCE 9: PASS (model, trace and weights byte-identical across reruns)")
