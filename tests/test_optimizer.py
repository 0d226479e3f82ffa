"""Energy terms, adaptive weights, pruning, line search, and the full loop."""

import numpy as np
import pytest

import erbfit.model
import erbfit.optimizer
from erbfit.field import Box, GaussianField, bounding_box
from erbfit.initializer import init_model
from erbfit.model import RbfModel
from erbfit.optimizer import (
    IterationTrace,
    ModelCollapseError,
    NonFiniteObjectiveError,
    OptimizerConfig,
    TraceRecord,
    adaptive_weights,
    energy_terms,
    fit_residual,
    line_search,
    max_pointwise_error,
    optimize,
    prune,
    write_weight_histogram,
)
from erbfit.sampler import ConstraintSet, make_grid, select_constraints


def _model(c, d, centers, angles=None):
    c = np.asarray(c, dtype=float)
    n = len(c)
    if angles is None:
        angles = np.zeros((n, 3))
    return RbfModel(
        coeff_sqrt=c,
        decay_sqrt=np.asarray(d, dtype=float).reshape(n, 3),
        centers=np.asarray(centers, dtype=float).reshape(n, 3),
        angles=np.asarray(angles, dtype=float).reshape(n, 3),
    )


def _bundled_constraints(molecule, spacing=1.5):
    field = GaussianField.from_molecule(molecule, decay=0.5)
    grid = make_grid(bounding_box(molecule), spacing)
    return select_constraints(field, grid, band=1.0)


def _random_model(rng, n):
    return _model(
        rng.uniform(0.2, 2.0, n),
        rng.uniform(0.3, 1.5, (n, 3)),
        rng.uniform(-3.0, 3.0, (n, 3)),
        rng.uniform(-np.pi, np.pi, (n, 3)),
    )


# ---------------------------------------------------------------- energies


def test_energy_terms_hand_computed():
    # one basis at the origin, one constraint sitting on the center
    m = _model([2.0], [[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]])
    cs = ConstraintSet(points=np.zeros((1, 3)), targets=np.array([3.0]))
    es, el1 = energy_terms(m, fit_residual(m, cs))
    # value at center is 2^2 = 4, residual 1 -> Es = 1
    assert es == pytest.approx(1.0, abs=1e-15)
    # El1 = 2^2 + (1 + 4 + 9) = 18
    assert el1 == pytest.approx(18.0, abs=1e-12)


def test_energy_terms_exact_start(molecule):
    m = init_model(molecule, decay=0.5)
    cs = _bundled_constraints(molecule)
    es, el1 = energy_terms(m, fit_residual(m, cs))
    assert es < 1e-18
    assert el1 == pytest.approx(
        float(m.coeff_sqrt @ m.coeff_sqrt + (m.decay_sqrt**2).sum()), rel=1e-15)


def test_energy_terms_null_model():
    m = _model([0.0], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
    cs = ConstraintSet(points=np.zeros((2, 3)), targets=np.array([1.0, 2.0]))
    es, el1 = energy_terms(m, fit_residual(m, cs))
    assert el1 == 0.0
    assert es == pytest.approx(5.0, abs=1e-15)


def test_max_pointwise_error_oracle(rng):
    m = _random_model(rng, 3)
    pts = rng.uniform(-3, 3, (40, 3))
    targets = rng.uniform(0.0, 2.0, 40)
    cs = ConstraintSet(points=pts, targets=targets)
    bases = [_model([c], d, x, a)
             for c, d, x, a in zip(m.coeff_sqrt, m.decay_sqrt, m.centers, m.angles)]
    worst = 0.0
    for p, t in zip(pts, targets):
        val = sum(b.values(p[None])[0] for b in bases)
        worst = max(worst, abs(val - t))
    assert max_pointwise_error(fit_residual(m, cs)) == pytest.approx(worst, rel=1e-12)


def test_max_pointwise_error_exact_start(molecule):
    m = init_model(molecule, decay=0.5)
    cs = _bundled_constraints(molecule)
    assert max_pointwise_error(fit_residual(m, cs)) < 1e-10


# ---------------------------------------------------------------- weights


def test_adaptive_weights_proportional():
    assert adaptive_weights(3.0, 1.0, 0.01) == (0.75, 0.25)


def test_adaptive_weights_floor():
    ws, wl = adaptive_weights(0.0, 5.0, 0.01)
    assert ws == 0.01
    assert wl == 1.0


def test_adaptive_weights_degenerate_total():
    assert adaptive_weights(0.0, 0.0, 0.01) == (0.01, 0.0)


def test_adaptive_weights_pure_fit():
    assert adaptive_weights(7.0, 0.0, 0.01) == (1.0, 0.0)


# ---------------------------------------------------------------- pruning


def test_prune_keeps_everything_returns_same_object(rng):
    m = _random_model(rng, 4)
    assert prune(m, 1e-3) is m


def test_prune_drops_small_coefficients(rng):
    m = _random_model(rng, 5)
    c = m.coeff_sqrt.copy()
    c[1] = 1e-6
    c[3] = -1e-8
    m = _model(c, m.decay_sqrt, m.centers, m.angles)
    out = prune(m, 1e-3)
    keep = np.abs(c) >= 1e-3
    assert out.n_bases == int(keep.sum())
    assert np.array_equal(out.params, m.params[keep])
    assert out.params.flags.c_contiguous


def test_prune_threshold_is_inclusive():
    m = _model([1e-3, 0.5], np.ones((2, 3)), np.zeros((2, 3)))
    assert prune(m, 1e-3).n_bases == 2


def test_prune_collapse():
    m = _model([1e-6, 1e-7], np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ModelCollapseError):
        prune(m, 1e-3)


# ---------------------------------------------------------------- line search


def test_line_search_on_quadratic(rng):
    # f(x) = 0.5 * L * |x|^2; any accepted step must land in (0, 2/L)
    for L in (0.5, 1.0, 4.0):
        x = rng.uniform(-2, 2, 6)
        objective = lambda v, L=L: 0.5 * L * float(v @ v)
        f0 = objective(x)
        grad = L * x
        for tau_init in (1e-3, 0.1, 1.0, 50.0):
            tau, f_new = line_search(objective, x, f0, grad, tau_init)
            assert 0.0 < tau <= 2.0 / L
            assert f_new < f0
            assert f_new == objective(x - tau * grad)


def test_line_search_never_accepts_zero_progress():
    objective = lambda v: 5.0
    x = np.ones(4)
    tau, f_new = line_search(objective, x, 5.0, np.full(4, 1e-9), tau_init=1e-3)
    assert tau == 0.0
    assert f_new == 5.0


def test_line_search_exhausts_backtracks():
    # a seed so large that 40 backtracks, each at most a tenth of the step
    # on this quadratic, cannot bring it to a stable step: 1e45 * 0.1**40 = 1e5
    objective = lambda v: 0.5 * float(v @ v)
    x = np.ones(3)
    tau, f_new = line_search(objective, x, objective(x), x, tau_init=1e45)
    assert tau == 0.0
    assert f_new == objective(x)


def _recorded_trials(objective, x, grad, tau_init):
    """The steps that line_search tries along -grad from x, and its result."""
    steps = []

    def recording(v):
        steps.append(float((x - v) @ grad / (grad @ grad)))
        return objective(v)
    return steps, line_search(recording, x, objective(x), grad, tau_init)


@pytest.mark.parametrize("tau_init, steps", [
    (3.0, [3.0, 1.0]),           # the quadratic's minimiser, tau / 3
    (40.0, [40.0, 4.0, 1.0]),    # tau / 40 clamped to tau / 10, then tau / 4
    (1.9999, [1.9999, 0.99995]),  # 1 / 1.9999 clamped to one half
])
def test_line_search_backtracks_to_the_clamped_quadratic_minimiser(tau_init, steps):
    # on 1/2 |v|^2 from x along -x the interpolating quadratic is the
    # objective itself, so a backtrack from tau lands on its minimiser 1,
    # a fraction 1 / tau of the step, clamped to [0.1, 0.5]
    objective = lambda v: 0.5 * float(v @ v)
    x = np.array([1.0, -2.0, 0.5])
    tried, (tau, f_new) = _recorded_trials(objective, x, x, tau_init)
    assert tried == pytest.approx(steps, rel=1e-12)
    assert tau == pytest.approx(steps[-1], rel=1e-12) and f_new == objective(x - tau * x)


def test_line_search_halves_an_overflowed_trial():
    # the first trial's objective overflows to inf: no quadratic through it,
    # so the step halves (the clamped minimiser would cut it to a tenth)
    def objective(v):
        with np.errstate(over="ignore"):
            return 0.5 * float(v @ v)
    x = np.ones(3)
    tried, _ = _recorded_trials(objective, x, x, 1e160)
    assert objective(x - 1e160 * x) == np.inf
    assert tried[:2] == [1e160, 5e159]


def test_line_search_rejects_zero_gradient():
    with pytest.raises(ValueError):
        line_search(lambda v: 0.0, np.ones(3), 0.0, np.zeros(3), 1e-3)


# ---------------------------------------------------------------- full loop


def _single_atom_constraints():
    field = GaussianField(centers=np.zeros((1, 3)), radii=np.array([1.5]), decay=0.5)
    box = Box(lo=np.full(3, -3.5), hi=np.full(3, 3.5))
    return select_constraints(field, make_grid(box, 0.7), band=1.0)


def _decoy_start(rng):
    """One basis that reproduces the single-atom field plus four near-zero decoys."""
    c = np.array([np.exp(0.25 * 1.5**2), 1e-4, 1e-4, 1e-4, 1e-4])
    d = np.vstack([np.full(3, np.sqrt(0.5))]
                  + [np.sqrt(0.5) * (1 + 0.2 * rng.standard_normal(3)) for _ in range(4)])
    centers = np.vstack([np.zeros(3)] + [rng.uniform(-1, 1, 3) for _ in range(4)])
    return _model(c, np.abs(d), centers)


def test_optimize_prunes_decoys_at_interval(rng):
    # one basis reproduces the field exactly; four near-zero decoys ride along
    cs = _single_atom_constraints()
    m0 = _decoy_start(rng)
    cfg = OptimizerConfig(max_iter=60, sparse_iter=60, prune_interval=20, prune_tol=1e-3)
    final, trace = optimize(m0, cs, cfg)
    nbasis = [r.nbasis for r in trace]
    assert nbasis[18] == 5          # iteration 19, before the pruning pass
    assert nbasis[19] == 1          # iteration 20, decoys removed
    assert final.n_bases == 1
    assert len(trace) == 60


def test_optimize_exact_start_stalls(molecule):
    # pure fit phase from a perfect model: zero gradient, nothing to do
    m0 = init_model(molecule, decay=0.5)
    cs = _bundled_constraints(molecule)
    cfg = OptimizerConfig(max_iter=5, sparse_iter=0)
    final, trace = optimize(m0, cs, cfg)
    assert len(trace) == 5
    assert trace.n_stalls == 5
    assert all(r.tau == 0.0 and r.ws == 1.0 and r.wl == 0.0 for r in trace)
    assert final == m0


def test_optimize_trace_invariants(molecule):
    m0 = init_model(molecule, decay=0.5)
    cs = _bundled_constraints(molecule)
    cfg = OptimizerConfig(max_iter=120, sparse_iter=90, prune_interval=20)
    final, trace = optimize(m0, cs, cfg)
    assert len(trace) == 120
    nbasis = np.array([r.nbasis for r in trace])
    assert np.all(np.diff(nbasis) <= 0)
    assert final.n_bases == nbasis[-1]
    for r in trace:
        assert r.iteration >= 1
        assert np.isfinite([r.f, r.es, r.el1, r.tau]).all()
        assert r.accepted_f <= r.f  # a step never raises the in-force objective
        if r.iteration > cfg.sparse_iter:
            assert (r.ws, r.wl) == (1.0, 0.0)
    post = {r.nbasis for r in trace if r.iteration > cfg.sparse_iter}
    assert len(post) == 1


def test_optimize_pure_fit_monotone(molecule):
    m0 = init_model(molecule, decay=0.5)
    m0 = _model(1.1 * m0.coeff_sqrt, m0.decay_sqrt, m0.centers, m0.angles)
    cs = _bundled_constraints(molecule)
    final, trace = optimize(m0, cs, OptimizerConfig(max_iter=50, sparse_iter=0))
    es = np.array([r.es for r in trace])
    assert np.all(np.diff(es) <= 0)
    assert es[-1] < es[0]
    assert max_pointwise_error(fit_residual(final, cs)) < max_pointwise_error(fit_residual(m0, cs))


@pytest.mark.parametrize("case", ["pure-fit", "prune"])
def test_optimize_reused_residual_is_bit_exact(molecule, rng, case):
    # record k of a (k+1)-iteration run holds E_s of the point that k
    # iterations reach; with the residual carried over from the accepted
    # line-search trial it must equal a from-scratch evaluation exactly
    if case == "pure-fit":
        m0 = init_model(molecule, decay=0.5)
        m0 = _model(1.1 * m0.coeff_sqrt, m0.decay_sqrt, m0.centers, m0.angles)
        cs = _bundled_constraints(molecule)
        steps = (0, 1, 2, 5, 13)
        cfg = lambda k: OptimizerConfig(max_iter=k, sparse_iter=0)
    else:
        # the decoys are pruned at iteration 20; keep every run in its sparse
        # phase so the shorter runs follow the same trajectory
        m0 = _decoy_start(rng)
        cs = _single_atom_constraints()
        steps = (18, 19, 20, 21)
        cfg = lambda k: OptimizerConfig(max_iter=k, sparse_iter=k, prune_interval=20)
    for k in steps:
        _, trace = optimize(m0, cs, cfg(k + 1))
        reached, earlier = optimize(m0, cs, cfg(k))
        if k > 0:
            assert earlier[k - 1].tau > 0.0  # the reuse path ran
        if (k + 1) % 20 == 0:
            reached = prune(reached, 1e-3)
            assert reached.n_bases == 1
        assert trace[k].es == energy_terms(reached, fit_residual(reached, cs))[0]


def test_optimize_point_passes_one_per_trial(rng, monkeypatch, point_passes):
    # one fused pass per line-search trial, plus one at the current point at
    # the start and after each prune that removed bases.  The points fit in
    # one block, so a pass's moment part runs only inside the gradient that
    # asks for it: one for each pass at the current point and one for each
    # accepted step that the next iteration starts from, none for a rejected
    # trial; after a stalled search the next gradient reuses the moments
    searches = []           # objective evaluations of each line search
    in_gradient = []        # (passes, moment parts) made inside each gradient step
    line_search = erbfit.optimizer.line_search
    gradient = erbfit.optimizer._objective_gradient_arrays

    def counting_line_search(objective, *args, **kwargs):
        searches.append(0)

        def counted(x):
            searches[-1] += 1
            return objective(x)
        return line_search(counted, *args, **kwargs)

    def watched_gradient(*args):
        before = dict(point_passes)
        result = gradient(*args)
        in_gradient.append(tuple(point_passes[k] - before[k] for k in ("passes", "moments")))
        return result

    monkeypatch.setattr(erbfit.optimizer, "line_search", counting_line_search)
    monkeypatch.setattr(erbfit.optimizer, "_objective_gradient_arrays", watched_gradient)
    cfg = OptimizerConfig(max_iter=45, sparse_iter=45, prune_interval=20)
    _, trace = optimize(_decoy_start(rng), _single_atom_constraints(), cfg)
    nbasis = [r.nbasis for r in trace]
    prunes = sum(1 for a, b in zip(nbasis, nbasis[1:]) if b < a)
    assert prunes == 1
    expected = 1 + sum(searches) + prunes
    assert point_passes["passes"] == point_passes["rotations"] == expected
    assert trace.point_passes == expected
    assert [r.trials for r in trace] == searches
    accepted = sum(1 for r in trace if r.tau > 0.0)
    assert sum(searches) > accepted > 0  # some trials were rejected
    new_point = [1] + [int(prev.tau > 0.0 or cur.nbasis < prev.nbasis)
                       for prev, cur in zip(trace, trace[1:])]
    assert in_gradient == [(0, m) for m in new_point]
    assert point_passes["moments"] == sum(new_point) == 1 + prunes + sum(
        1 for prev, cur in zip(trace, trace[1:]) if prev.tau > 0.0 and cur.nbasis == prev.nbasis)


def test_optimize_takes_the_energies_once_per_pass(rng, monkeypatch, point_passes):
    # one evaluation per point: each pass's energies are taken once, and the
    # accepted trial's serve the next iteration, so 1 + trials + prunes calls
    calls = []
    energy_terms_ = erbfit.optimizer.energy_terms
    monkeypatch.setattr(erbfit.optimizer, "energy_terms",
                        lambda *args: calls.append(1) or energy_terms_(*args))
    cfg = OptimizerConfig(max_iter=45, sparse_iter=45, prune_interval=20)
    _, trace = optimize(_decoy_start(rng), _single_atom_constraints(), cfg)
    nbasis = [r.nbasis for r in trace]
    prunes = sum(1 for a, b in zip(nbasis, nbasis[1:]) if b < a)
    assert prunes == 1
    expected = 1 + sum(r.trials for r in trace) + prunes
    assert len(calls) == trace.point_passes == point_passes["passes"] == expected


def test_optimize_cutoff_counts_pairs_and_keeps_the_trace(monkeypatch):
    # two atoms 30 A apart: with blocks of 64 constraint points, a block near
    # one atom does not take the other's basis.  The trace agrees with the
    # one-block fit to rounding, and the pairs counted are those evaluated
    centers = np.array([[-15.0, 0.0, 0.0], [15.0, 0.3, -0.2]])
    field = GaussianField(centers=centers, radii=np.array([1.5, 1.7]), decay=0.5)
    box = Box(lo=centers.min(axis=0) - 5.0, hi=centers.max(axis=0) + 5.0)
    cs = select_constraints(field, make_grid(box, 0.7), band=1.0)
    m0 = _model(1.05 * np.exp(0.25 * np.array([1.5, 1.7]) ** 2), np.full((2, 3), 0.72), centers)
    cfg = OptimizerConfig(max_iter=6, sparse_iter=6)
    _, whole = optimize(m0, cs, cfg)
    monkeypatch.setattr(erbfit.model, "BLOCK_DOUBLES", 64 * (10 + 2))
    _, cut = optimize(m0, cs, cfg)
    n_blocks = -(-len(cs) // 64)
    assert whole.block_pairs == whole.block_pairs_full == 2 * whole.point_passes
    assert cut.point_passes == whole.point_passes
    assert cut.block_pairs_full == 2 * n_blocks * cut.point_passes
    assert cut.block_pairs < 0.6 * cut.block_pairs_full
    for a, b in zip(whole, cut):
        assert (a.nbasis, a.ws == 1.0) == (b.nbasis, b.ws == 1.0)
        for name in ("f", "es", "el1", "tau"):
            assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-12), name


def test_optimize_collapse_carries_partial_trace(molecule):
    m0 = init_model(molecule, decay=0.5)
    cs = _bundled_constraints(molecule)
    cfg = OptimizerConfig(max_iter=40, sparse_iter=40, prune_interval=20,
                          prune_tol=100.0)
    with pytest.raises(ModelCollapseError) as err:
        optimize(m0, cs, cfg)
    assert err.value.trace is not None
    assert len(err.value.trace) == 19  # failed during the iteration-20 pruning


def test_optimize_rejects_empty_model():
    cs = ConstraintSet(points=np.zeros((1, 3)), targets=np.ones(1))
    empty = RbfModel(coeff_sqrt=np.zeros(0), decay_sqrt=np.zeros((0, 3)),
                     centers=np.zeros((0, 3)), angles=np.zeros((0, 3)))
    with pytest.raises(ModelCollapseError):
        optimize(empty, cs, OptimizerConfig(max_iter=5, sparse_iter=0))


def test_optimize_nonfinite_objective():
    m0 = _model([1e200], np.full((1, 3), np.sqrt(0.5)), np.zeros((1, 3)))
    cs = ConstraintSet(points=np.zeros((1, 3)), targets=np.ones(1))
    with pytest.raises(NonFiniteObjectiveError):
        optimize(m0, cs, OptimizerConfig(max_iter=5, sparse_iter=0))


def test_optimize_nonfinite_gradient(rng):
    # a basis 1e200 A away is exactly zero at the points, so the objective is
    # finite, but its moments about its own center hold 0 * (1e200)^2 = nan
    m0 = _model([1.0, 1.0], np.full((2, 3), 0.5), [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]])
    cs = ConstraintSet(points=rng.uniform(-2, 2, (30, 3)), targets=rng.uniform(0, 1, 30))
    with pytest.raises(NonFiniteObjectiveError, match="gradient not finite at iteration 1") as err:
        optimize(m0, cs, OptimizerConfig(max_iter=3, sparse_iter=3))
    assert len(err.value.trace) == 0


def test_optimize_stationary_start_takes_no_step(rng, monkeypatch, point_passes):
    # zero weights and decays against zero targets: residual, energies and
    # gradient are all exactly zero, so each iteration records a zero step
    # without a line search, and no pass runs after the one at the start
    searches = []
    monkeypatch.setattr(erbfit.optimizer, "line_search", lambda *a, **k: searches.append(a))
    m0 = _model(np.zeros(2), np.zeros((2, 3)), rng.uniform(-1, 1, (2, 3)))
    cs = ConstraintSet(points=rng.uniform(-2, 2, (20, 3)), targets=np.zeros(20))
    final, trace = optimize(m0, cs, OptimizerConfig(max_iter=3, sparse_iter=0))
    assert [(r.iteration, r.tau, r.trials, r.f, r.accepted_f, r.nbasis) for r in trace] == [
        (it, 0.0, 0, 0.0, 0.0, 2) for it in (1, 2, 3)]
    assert [(r.ws, r.wl) for r in trace] == [(1.0, 0.0)] * 3
    assert searches == []
    assert trace.point_passes == point_passes["passes"] == 1
    assert final == m0


@pytest.mark.parametrize("case", ["pure-fit", "prune", "stall"])
def test_optimize_returns_the_final_residual(molecule, rng, case):
    # points in one block: the residual of the last pass, the accepted
    # trial's or, after a stalled search, the current point's, has the bits
    # of a fresh value pass at the final model
    if case == "pure-fit":
        m0 = init_model(molecule, decay=0.5)
        m0 = _model(1.1 * m0.coeff_sqrt, m0.decay_sqrt, m0.centers, m0.angles)
        cs, cfg = _bundled_constraints(molecule), OptimizerConfig(max_iter=7, sparse_iter=0)
    elif case == "prune":
        cs = _single_atom_constraints()
        m0, cfg = _decoy_start(rng), OptimizerConfig(max_iter=25, sparse_iter=25)
    else:
        m0 = init_model(molecule, decay=0.5)
        cs, cfg = _bundled_constraints(molecule), OptimizerConfig(max_iter=3, sparse_iter=0)
    final, trace = optimize(m0, cs, cfg)
    assert (trace[-1].tau == 0.0) == (case == "stall")
    if case == "prune":
        assert final.n_bases == 1
    assert np.array_equal(trace.residual, fit_residual(final, cs))


def test_optimize_residual_after_a_prune_over_blocks(rng, monkeypatch):
    # the passes' blocks are sized for the five initial bases; fit_residual
    # of the one survivor takes larger blocks about other origins, so the
    # two agree to rounding, not bit for bit
    cs = _single_atom_constraints()
    monkeypatch.setattr(erbfit.model, "BLOCK_DOUBLES", 64 * (10 + 5))
    final, trace = optimize(_decoy_start(rng), cs,
                            OptimizerConfig(max_iter=25, sparse_iter=25))
    assert final.n_bases == 1 and len(cs) > 2 * 64
    assert np.abs(trace.residual - fit_residual(final, cs)).max() <= 1e-12


def test_optimize_without_iterations_makes_one_value_pass(molecule, point_passes):
    m0 = init_model(molecule, decay=0.5)
    cs = _bundled_constraints(molecule)
    final, trace = optimize(m0, cs, OptimizerConfig(max_iter=0, sparse_iter=0))
    assert len(trace) == 0 and final == m0
    assert trace.point_passes == point_passes["passes"] == 1
    assert trace.block_pairs == trace.block_pairs_full == m0.n_bases
    assert np.array_equal(trace.residual, fit_residual(m0, cs))


# ---------------------------------------------------------------- config, io


def test_config_defaults():
    cfg = OptimizerConfig()
    assert cfg.max_iter == 8000
    assert cfg.sparse_iter == 6000
    assert cfg.prune_tol == 1e-3
    assert cfg.prune_interval == 20
    assert cfg.epsilon_floor == 0.01
    assert cfg.max_error_cap == 0.5


@pytest.mark.parametrize("kwargs", [
    {"max_iter": -1},
    {"sparse_iter": 10, "max_iter": 5},
    {"prune_tol": 0.0},
    {"prune_interval": 0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        OptimizerConfig(**kwargs)


def test_trace_csv_roundtrip(tmp_path):
    trace = IterationTrace()
    trace.append(TraceRecord(1, 2.5, 2.0, 0.5, 0.8, 0.2, 7, 1e-3, 2.25))
    trace.append(TraceRecord(2, 2.25, 1.9, 0.35, 1.0, 0.0, 6, 0.0, 2.25))
    path = tmp_path / "trace.csv"
    trace.to_csv(path, header_lines=["run one", "spacing=1.0"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# run one"
    assert lines[1] == "# spacing=1.0"
    assert lines[2] == "iter,f,Es,El1,ws,wl,nbasis,tau"
    assert len(lines) == 5
    row = lines[3].split(",")
    assert int(row[0]) == 1
    assert float(row[1]) == 2.5
    assert float(row[4]) == 0.8
    assert int(row[6]) == 7
    assert float(row[7]) == 1e-3


def test_weight_histogram_file(tmp_path, rng):
    m = _random_model(rng, 4)
    path = tmp_path / "weights.txt"
    write_weight_histogram(m, path, header_lines=["weights"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# weights"
    values = [float(s) for s in lines[1:]]
    assert values == [float(w) for w in m.weights]
